(* Seeded input generators for the three workloads.  Everything here is
   a pure function of the workload seed (and a pass or template index),
   so the same seed always yields the same inputs, whatever the host. *)

module W = Workloads

let rng seed parts = Random.State.make (Array.of_list (seed :: parts))

(* Catalog parameters for one generated graph: the default ranges of
   [Workloads.Shapes] under a seed mixed from the workload seed, the
   pass and the graph's slot in the pass. *)
let params seed parts =
  { W.Shapes.default_params with seed = Hashtbl.hash (seed :: parts) }

(* ---------- sql_replay: SQL text over a seeded template universe ---------- *)

type template = {
  id : int;
  sql : string;
  cards : float array;  (** per-relation cardinality, FROM order *)
  sels : float array;  (** per-operator selectivity *)
}

let universe_size = 300

(* Tree-shaped join queries of 4-14 relations in the dialect of
   [Sqlfront.Parser].  Each new relation joins one earlier relation
   that is still in scope (the right side of a SEMI / ANTI join is
   not), mostly by inner joins.  The join structure of template [id]
   (size, shape, join kinds) depends on [id] alone, and [id] is also
   its popularity rank: a seed draws the table names, cardinalities and
   selectivities (hence SQL text, plans and cache keys), so runs under
   different seeds do comparable work. *)
let template ~seed id =
  let shape = rng 0 [ 1; id ] and cat = rng seed [ 1; id ] in
  let n = 4 + Random.State.int shape 11 in
  let b = Buffer.create 256 in
  Printf.bprintf b "SELECT * FROM t%d r0" (Random.State.int cat 40);
  let in_scope = ref [ 0 ] in
  for j = 1 to n - 1 do
    let u = Random.State.float shape 1.0 in
    let kind =
      if u < 0.7 then "JOIN"
      else if u < 0.82 then "LEFT JOIN"
      else if u < 0.91 then "SEMI JOIN"
      else "ANTI JOIN"
    in
    let p = List.nth !in_scope (Random.State.int shape (List.length !in_scope)) in
    Printf.bprintf b " %s t%d r%d ON r%d.k%d = r%d.k%d" kind
      (Random.State.int cat 40) j p j j p;
    if u < 0.82 then in_scope := j :: !in_scope
  done;
  let cards =
    Array.init n (fun _ ->
        Float.round (10. ** (1. +. Random.State.float cat 4.)))
  in
  let sels = Array.init n (fun _ -> 10. ** (-3. +. Random.State.float cat 2.7)) in
  { id; sql = Buffer.contents b; cards; sels }

let universe seed = Array.init universe_size (template ~seed)

(* Zipf(alpha) over popularity ranks 0..n-1, sampled by inverse CDF. *)
let zipf_cdf ~alpha n =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** alpha)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf r =
  let u = Random.State.float r 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* ---------- graph workloads: one pass = a fixed mix of distinct graphs ---------- *)

(* The structure of [g] under a fresh catalog drawn from [p]: a random
   structure then stays the same for every seed and pass, and only the
   cardinalities and selectivities change. *)
let recatalog p g =
  let module G = Hypergraph.Graph in
  let r = W.Shapes.rng_of p in
  let rels =
    Array.init (G.num_nodes g) (fun i ->
        { (G.relation g i) with G.card = W.Shapes.rand_card p r })
  in
  let edges =
    Array.map
      (fun (e : Hypergraph.Hyperedge.t) -> { e with sel = W.Shapes.rand_sel p r })
      (G.edges g)
  in
  G.make rels edges

type graph_req = { label : string; graph : Hypergraph.Graph.t }

(* Every pass of a graph workload serves the same shapes in the same
   order, so a run's figures depend neither on which shapes a seed draws
   nor on how many passes fit in the run; the seed and the pass set the
   catalogs, so every request is a distinct plan-cache miss. *)

(* dphyp_exact: the paper's families at 10-16 relations. *)
let dphyp_pass ~seed pass =
  let ps slot = params seed [ 2; pass; slot ] in
  let r = rng seed [ 2; pass ] in
  let family name graphs =
    List.mapi (fun i graph -> { label = Printf.sprintf "%s-s%d" name i; graph }) graphs
  in
  let star15 =
    (* two of its eight split levels: one coarse, one fine *)
    let levels = Array.of_list (family "star15" (W.Splits.star_based ~p:(ps 1) 14)) in
    [ levels.(2); levels.(5) ]
  in
  let tpch =
    List.map
      (fun q ->
        { label = "tpch-" ^ q; graph = W.Tpch.query ~sf:(0.5 +. Random.State.float r 1.5) q })
      W.Tpch.query_names
  in
  let hyper =
    List.mapi
      (fun i n ->
        {
          label = Printf.sprintf "rhyper%d" n;
          graph =
            recatalog (ps (10 + i))
              (W.Random_graphs.hyper ~seed:i ~n ~extra_edges:(n / 2)
                 ~hyperedges:2 ~max_hypernode:3 ());
        })
      [ 10; 11; 12; 12; 13; 14 ]
  in
  let cliques =
    List.map
      (fun n ->
        { label = Printf.sprintf "clique%d" n; graph = W.Shapes.clique ~p:(ps (20 + n)) n })
      [ 10; 11; 12 ]
  in
  Array.of_list
    (family "star13" (W.Splits.star_based ~p:(ps 0) 12)
    @ star15
    @ family "cycle12" (W.Splits.cycle_based ~p:(ps 2) 12)
    @ family "cycle14" (W.Splits.cycle_based ~p:(ps 3) 14)
    @ family "cycle16" (W.Splits.cycle_based ~p:(ps 4) 16)
    @ tpch @ hyper @ cliques)

(* adaptive_hard: dense graphs (DPconv pre-tier + bound-pruned exact
   rung) and wide graphs (partitioned tier).  Clique-14 and star-127
   come twice (under two catalogs), so the median latency falls inside
   a group of like requests rather than between two. *)
let adaptive_pass ~seed pass =
  let ps slot = params seed [ 3; pass; slot ] in
  [|
    { label = "clique12"; graph = W.Shapes.clique ~p:(ps 8) 12 };
    { label = "clique14"; graph = W.Shapes.clique ~p:(ps 0) 14 };
    { label = "clique14"; graph = W.Shapes.clique ~p:(ps 9) 14 };
    { label = "clique16"; graph = W.Shapes.clique ~p:(ps 1) 16 };
    {
      label = "dense14";
      graph = recatalog (ps 2) (W.Random_graphs.simple ~seed:0 ~n:14 ~extra_edges:30 ());
    };
    { label = "star127"; graph = W.Shapes.star ~p:(ps 3) 126 };
    { label = "star127"; graph = W.Shapes.star ~p:(ps 10) 126 };
    { label = "chain512"; graph = W.Shapes.chain ~p:(ps 4) 512 };
    { label = "grid16x16"; graph = W.Shapes.grid ~p:(ps 5) ~rows:16 ~cols:16 () };
    { label = "snowflake100"; graph = W.Shapes.snowflake_n ~p:(ps 6) 100 };
    { label = "snowflake341"; graph = W.Shapes.snowflake_n ~p:(ps 7) 341 };
  |]
