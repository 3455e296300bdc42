module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

(* IDP-k (iterative dynamic programming, Kossmann & Stocker style,
   "IDP-M" flavor): pick a block of at most k relations, optimize it
   {e exactly} with block-restricted DPhyp (Dphyp.solve_subset),
   materialize the winning sub-plan as a compound leaf
   (Plan.materialized) of the graph with the block contracted to one
   node (Graph.contract), and repeat until a single plan covers
   everything.  Each round costs at most the 3^k of exact DP on k
   relations, so total work is polynomial in n for fixed k — and with
   k >= n the first round IS exact DPhyp, so IDP degrades continuously
   from the optimum.

   Plans built on a contracted graph talk about contracted node sets
   and edge ids, so each round's winner is immediately {e flattened}
   back onto the original graph: compound leaves are replaced by the
   root sub-plans they stand for and every join is rebuilt with
   Plan.join using the stored per-join selectivity and the edge-id
   translation accumulated across contractions.  Cardinalities and
   costs are reproduced exactly (same model, same selectivities, same
   leaf cardinalities), so the returned plan is a plain root-graph
   plan that Plan_check accepts and to_optree can execute. *)

let default_k = 7

(* Deterministic greedy block: seed at the smallest-cardinality node,
   then repeatedly pull in the smallest-cardinality node adjacent to
   the block (ties: smallest index).  Adjacency is cover overlap —
   cheap, and any over-approximation is harmless because the block DP
   only materializes sets it actually connected. *)
let choose_block g k =
  let n = G.num_nodes g in
  let card v = G.cardinality g v in
  let seed = ref 0 in
  for v = 1 to n - 1 do
    if card v < card !seed then seed := v
  done;
  let block = ref (Ns.singleton !seed) in
  let stop = ref false in
  while (not !stop) && Ns.cardinal !block < k do
    let nb =
      Array.fold_left
        (fun acc (e : He.t) ->
          let cover = He.covers e in
          if Ns.intersects cover !block then Ns.union cover acc else acc)
        Ns.empty (G.edges g)
    in
    let nb = Ns.diff nb !block in
    match
      Ns.fold
        (fun v best ->
          match best with
          | Some b when card b <= card v -> best
          | _ -> Some v)
        nb None
    with
    | None -> stop := true
    | Some v -> block := Ns.add v !block
  done;
  !block

(* Best materialization candidate in the block DP table: the largest
   contractible entry, cheapest first, node-set order as the final
   tie-break so the choice never depends on table iteration order. *)
let pick_entry g dp block =
  let better (a : Plans.Plan.t) (b : Plans.Plan.t) =
    a.cost < b.cost || (a.cost = b.cost && Ns.compare a.set b.set < 0)
  in
  let rec at_size s =
    if s < 2 then None
    else
      let best =
        List.fold_left
          (fun acc set ->
            if G.contractible g set then
              let p = Plans.Dp_table.best dp set in
              match acc with Some b when better b p -> acc | _ -> Some p
            else acc)
          None
          (Plans.Dp_table.sets_of_size dp s)
      in
      match best with None -> at_size (s - 1) | some -> some
  in
  at_size (Ns.cardinal block)

let solve ?obs ?(model = Costing.Cost_model.c_out)
    ?(counters = Counters.create ()) ?init ?(k = default_k) g =
  if k < 2 then invalid_arg "Idp.solve: k must be at least 2";
  let round_no = ref 0 in
  (* [state = Some (emap, base)] after the first contraction: [emap]
     translates current edge ids to root edge ids, [base.(v)] is the
     root-graph plan the current node [v] stands for. *)
  (* [kr] is the effective block size for this round.  It starts at
     [k] and widens only when a round gets stuck — on hypergraphs a
     small block may contain no contractible connected subset (every
     candidate is straddled by a complex edge).  Widening is capped by
     [n <= kr], where the round is plain exact DP and always decides. *)
  let rec round g state kr =
    let n = G.num_nodes g in
    let step sp =
      let leaf =
        match state with
        | None -> fun v -> Plans.Plan.scan g v
        | Some (_, base) -> fun v -> Plans.Plan.materialized v base.(v)
      in
      let flatten p =
        match state with
        | None -> p
        | Some (emap, base) ->
            let rec go (p : Plans.Plan.t) =
              match p.tree with
              | Plans.Plan.Scan v -> base.(v)
              | Plans.Plan.Compound c -> c.sub
              | Plans.Plan.Join j ->
                  Plans.Plan.join model ~op:j.op
                    ~edge_ids:(List.map (fun id -> emap.(id)) j.edge_ids)
                    ~sel:j.sel (go j.left) (go j.right)
            in
            go p
      in
      if n <= kr then begin
        let _, plan =
          Dphyp.solve_subset ~model ~leaf ~counters ~subset:(G.all_nodes g) g
        in
        Obs.Span.set_opt sp "final" (Obs.Span.Bool true);
        `Done (Option.map flatten plan)
      end
      else begin
        let block = choose_block g kr in
        let dp, _ = Dphyp.solve_subset ~model ~leaf ~counters ~subset:block g in
        match pick_entry g dp block with
        | None ->
            Obs.Span.set_opt sp "widened" (Obs.Span.Bool true);
            `Widen (kr + 1)
        | Some bp ->
            let broot = flatten bp in
            let { G.cgraph; node_of; edge_of } =
              G.contract g ~block:bp.set ~card:broot.card ()
            in
            let emap' =
              Array.map
                (fun old_id ->
                  match state with
                  | Some (emap, _) -> emap.(old_id)
                  | None -> old_id)
                edge_of
            in
            let base' = Array.make (G.num_nodes cgraph) broot in
            for v = 0 to n - 1 do
              if not (Ns.mem v bp.set) then
                base'.(node_of.(v)) <-
                  (match state with
                  | Some (_, base) -> base.(v)
                  | None -> Plans.Plan.scan g v)
            done;
            `Next (cgraph, Some (emap', base'))
      end
    in
    incr round_no;
    match
      Plans.Dp_table.with_context
        (let l = Printf.sprintf "idp:round:%d" !round_no in
         match Plans.Dp_table.current_context () with
         | "" -> l
         | outer -> outer ^ "/" ^ l)
        (fun () ->
          Obs.Span.with_opt obs "idp-round"
            ~attrs:
              [
                ("round", Obs.Span.Int !round_no);
                ("nodes", Obs.Span.Int n);
                ("k", Obs.Span.Int kr);
              ]
            step)
    with
    | `Done plan -> plan
    | `Widen kr' -> round g state kr'
    | `Next (g', state') -> round g' state' k
  in
  (* [?init] lets a caller that already contracted blocks of the root
     graph (the partitioned tier) enter the rounds mid-flight: the
     graph passed in is then a contracted one and [init] its (emap,
     base) bookkeeping against the true root graph. *)
  round g init k
