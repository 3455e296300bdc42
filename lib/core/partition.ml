module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

(* DPhyp-on-partitions: the large-query tier.

   Queries beyond the exhaustive-DP range (in particular the wide
   graphs past Node_set.small_capacity relations) are planned in three
   moves:

   1. {e Partition} the query graph into connected blocks of bounded
      size by greedy edge clustering: union-find over the nodes,
      merging along the most selective simple edges first (the joins
      you least want to cut — they shrink intermediate results the
      most), while complex-hyperedge covers are merged unconditionally
      so no block boundary ever straddles a hypernode (which would
      make the block uncontractible).

   2. {e Solve each block exactly} with block-restricted DPhyp
      (Dphyp.solve_subset) and contract it to a compound node
      (Graph.contract), accumulating the same (emap, base) edge-id /
      leaf-plan bookkeeping IDP uses.

   3. {e Stitch} the contracted graph with IDP-k entered mid-flight
      (Idp.solve ~init): compound nodes are materialized leaves, and
      IDP's rounds also absorb whatever the partition left as
      singletons (a star's satellites, say, can only cluster with the
      hub, so most of them arrive here unmerged and are folded in
      round by round).

   Every plan is flattened back onto the original graph as it is
   built, so the result validates under Plan_check like any other
   optimizer output. *)

let default_block_size = 10
let default_stitch_k = 10

(* Greedy edge clustering into connected blocks of at most
   [block_size] nodes (complex covers may force a block over the
   limit: correctness first, the block DP just works harder).  Blocks
   are returned in ascending min-member order, singletons included. *)
let partition g ~block_size =
  let n = G.num_nodes g in
  let parent = Array.init n (fun v -> v) in
  let size = Array.make n 1 in
  let rec find v =
    if parent.(v) = v then v
    else begin
      let r = find parent.(v) in
      parent.(v) <- r;
      r
    end
  in
  let merge a b =
    let ra = find a and rb = find b in
    if ra <> rb then begin
      let ra, rb = if ra < rb then (ra, rb) else (rb, ra) in
      parent.(rb) <- ra;
      size.(ra) <- size.(ra) + size.(rb)
    end
  in
  (* complex covers first, unconditionally: a hypernode split across
     blocks would make every containing block uncontractible *)
  List.iter
    (fun (e : He.t) ->
      let cover = He.covers e in
      match Ns.min_elt_opt cover with
      | None -> ()
      | Some r -> Ns.iter (fun v -> merge r v) cover)
    (G.complex_edges g);
  (* then simple edges, most selective first (ties by id, so the
     clustering is deterministic) *)
  let simple =
    Array.to_list (G.edges g)
    |> List.filter (fun (e : He.t) -> Ns.is_singleton e.u && Ns.is_singleton e.v)
    |> List.stable_sort (fun (a : He.t) (b : He.t) ->
           match Float.compare a.sel b.sel with
           | 0 -> Int.compare a.id b.id
           | c -> c)
  in
  List.iter
    (fun (e : He.t) ->
      let a = find (Ns.min_elt e.u) and b = find (Ns.min_elt e.v) in
      if a <> b && size.(a) + size.(b) <= block_size then merge a b)
    simple;
  let members = Array.make n Ns.empty in
  for v = n - 1 downto 0 do
    let r = find v in
    members.(r) <- Ns.add v members.(r)
  done;
  Array.to_list members |> List.filter (fun s -> not (Ns.is_empty s))

let solve ?obs ?(model = Costing.Cost_model.c_out)
    ?(counters = Counters.create ()) ?(block_size = default_block_size)
    ?(k = default_stitch_k) g0 =
  if block_size < 2 then
    invalid_arg "Partition.solve: block_size must be at least 2";
  let n0 = G.num_nodes g0 in
  let blocks =
    Obs.Span.with_opt obs "partition:cluster"
      ~attrs:[ ("nodes", Obs.Span.Int n0) ]
      (fun _ -> partition g0 ~block_size)
  in
  (* Same bookkeeping as Idp's rounds: [emap] maps current edge ids to
     root edge ids, [base.(v)] is the root plan current node [v]
     stands for, [cur_of] the composed root-node renaming. *)
  let cur = ref g0 in
  let emap = ref (Array.init (G.num_edges g0) (fun i -> i)) in
  let base = ref (Array.init n0 (fun v -> Plans.Plan.scan g0 v)) in
  let cur_of = ref (Array.init n0 (fun v -> v)) in
  let contracted = ref 0 in
  let final = ref None in
  let flatten p =
    let emap = !emap and base = !base in
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
  List.iter
    (fun block ->
      if !final = None && Ns.cardinal block >= 2 then begin
        let bcur =
          Ns.fold (fun v acc -> Ns.add (!cur_of).(v) acc) block Ns.empty
        in
        let leaf v = Plans.Plan.materialized v (!base).(v) in
        let solve_block _sp =
          Dphyp.solve_subset ~model ~leaf ~counters ~subset:bcur !cur
        in
        let _dp, plan =
          Plans.Dp_table.with_context
            (let l = Printf.sprintf "partition:block:R%d" (Ns.min_elt block) in
             match Plans.Dp_table.current_context () with
             | "" -> l
             | outer -> outer ^ "/" ^ l)
            (fun () ->
              Obs.Span.with_opt obs "partition:block"
                ~attrs:[ ("block_nodes", Obs.Span.Int (Ns.cardinal bcur)) ]
                solve_block)
        in
        match plan with
        | None ->
            (* the induced subgraph could not be assembled end-to-end
               (complex-edge interactions); leave the block to the
               stitching rounds *)
            ()
        | Some bp ->
            if Ns.cardinal bcur = G.num_nodes !cur then
              (* one block covers the whole graph: that exact DP run
                 already decided everything *)
              final := Some (flatten bp)
            else if G.contractible !cur bp.set then begin
              let broot = flatten bp in
              let { G.cgraph; node_of; edge_of } =
                G.contract !cur ~block:bp.set ~card:broot.card ()
              in
              let emap' = Array.map (fun old_id -> (!emap).(old_id)) edge_of in
              let base' = Array.make (G.num_nodes cgraph) broot in
              for v = 0 to G.num_nodes !cur - 1 do
                if not (Ns.mem v bp.set) then base'.(node_of.(v)) <- (!base).(v)
              done;
              for v = 0 to n0 - 1 do
                (!cur_of).(v) <- node_of.((!cur_of).(v))
              done;
              cur := cgraph;
              emap := emap';
              base := base';
              incr contracted
            end
      end)
    blocks;
  match !final with
  | Some _ as p -> p
  | None ->
      if !contracted = 0 then Idp.solve ?obs ~model ~counters ~k g0
      else Idp.solve ?obs ~model ~counters ~init:(!emap, !base) ~k !cur

(* Where did the stitches lose cost against exhaustive DP?  Only
   answerable when the graph is small enough to solve exactly — which
   is precisely the regime the tests exercise the partitioned tier in.
   The exact re-solve is deliberately unbudgeted: this is a
   diagnostic, not a planning path. *)
let loss_report ?(model = Costing.Cost_model.c_out)
    ?(labels = ("partitioned", "exact")) g plan =
  if G.num_nodes g > Ns.small_capacity then None
  else
    match Dphyp.solve ~model g with
    | None -> None
    | Some exact ->
        let names i = (G.relation g i).G.name in
        Some (Plans.Plan_diff.report ~names ~labels plan exact)
