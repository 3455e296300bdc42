module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge
module Op = Relalg.Operator
module Plan = Plans.Plan

type filter = Ns.t -> Ns.t -> (He.t * He.orientation) list -> bool

type t = {
  g : G.t;
  model : Costing.Cost_model.t;
  counters : Counters.t;
  filter : filter option;
  bound : float;
      (* upper bound on the cost of any useful plan: candidates above
         it never enter the table, which also prunes the enumeration
         subtrees they would have seeded.  Safe whenever costs are
         additive and non-negative (every subplan of an optimal plan
         then costs at most the optimum): the surviving table is
         byte-identical to the unbounded one.  [infinity] = off. *)
  find : Ns.t -> Plan.t option;
  admits : Ns.t -> float -> bool;
  add : int -> Plan.t -> unit;
}

let make_with ?filter ~find ~admits ~add ~model ~counters g =
  { g; model; counters; filter; bound = infinity; find; admits; add }

let make ?filter ?(bound = infinity) ~model ~counters g dp =
  {
    (make_with ?filter ~model ~counters g ~find:(Plans.Dp_table.find dp)
       ~admits:(Plans.Dp_table.admits dp)
       ~add:(fun _rank plan -> ignore (Plans.Dp_table.update dp plan)))
    with
    bound;
  }

(* The part an incident edge plays in joining s1 and s2.  A plan over
   S has applied exactly the edges whose cover lies inside S, so an
   edge is pending — covered by this join, applied by neither side,
   and not connecting — iff its cover lies inside s1 ∪ s2 but not
   inside either side.  The gathered edges all meet the smaller side,
   so none lies inside the bigger one and testing [small] suffices. *)
type role = Apart | Forward | Backward | Pending

let role g s1 s2 ~small ~both id =
  let cover = G.edge_cover g id in
  if not (Ns.subset cover both) then Apart
  else
    (* [He.orient], less its [w ⊆ s1 ∪ s2] test, which the cover test
       has just made *)
    let e = G.edge g id in
    if Ns.subset e.u s1 && Ns.subset e.v s2 then Forward
    else if Ns.subset e.u s2 && Ns.subset e.v s1 then Backward
    else if Ns.subset cover small then Apart
    else Pending

let smaller s1 s2 = if Ns.cardinal s1 <= Ns.cardinal s2 then s1 else s2

(* Both lists below re-read the gathered edges, so they are only built
   when needed: [edge_ids] for a winning candidate, [connecting] when
   a filter is installed. *)

(* Connecting ids ascending, then pending ids ascending. *)
let edge_ids g ~cnt ~npend s1 s2 =
  let small = smaller s1 s2 and both = Ns.union s1 s2 in
  let acc = ref [] in
  if npend > 0 then
    for i = cnt - 1 downto 0 do
      let id = G.incident_edge g i in
      match role g s1 s2 ~small ~both id with
      | Pending -> acc := id :: !acc
      | Apart | Forward | Backward -> ()
    done;
  for i = cnt - 1 downto 0 do
    let id = G.incident_edge g i in
    match role g s1 s2 ~small ~both id with
    | Forward | Backward -> acc := id :: !acc
    | Apart | Pending -> ()
  done;
  !acc

(* What [G.connecting_edges g s1 s2] returns. *)
let connecting g ~cnt s1 s2 =
  let small = smaller s1 s2 and both = Ns.union s1 s2 in
  let acc = ref [] in
  for i = cnt - 1 downto 0 do
    let id = G.incident_edge g i in
    match role g s1 s2 ~small ~both id with
    | Forward -> acc := (G.edge g id, He.Forward) :: !acc
    | Backward -> acc := (G.edge g id, He.Backward) :: !acc
    | Apart | Pending -> ()
  done;
  !acc

(* One argument order of a resolved pair — p1 on the left iff [first].
   Rejects orders whose left argument depends on the right one,
   applies the dependent switch of Section 5.6, costs the candidate,
   and builds its plan only if it is within the bound and the table
   admits it.  [ids] is the pair's edge-id list once built, [] before;
   the (possibly new) list is returned so both orders share it. *)
let candidate t ~rank ~op ~sel ~cnt ~npend ~ids ~first (p1 : Plan.t)
    (p2 : Plan.t) =
  let g = t.g in
  let left = if first then p1 else p2 and right = if first then p2 else p1 in
  (* the sides are disjoint, so FT(P) ∩ other side needs no [\ P] *)
  let dependent = Ns.intersects (G.free_of g right.set) left.set in
  if
    Ns.intersects (G.free_of g left.set) right.set
    || (dependent && op.Op.kind = Op.Full_outer)
  then ids
  else begin
    let op = if dependent then Op.to_dependent op else op in
    t.counters.Counters.cost_calls <- t.counters.Counters.cost_calls + 1;
    let card = Costing.Cardinality.estimate op left.card right.card sel in
    let cost = Plan.join_cost t.model ~op left right ~card in
    if cost <= t.bound && t.admits (Ns.union p1.set p2.set) cost then begin
      let ids =
        match ids with [] -> edge_ids g ~cnt ~npend p1.set p2.set | l -> l
      in
      t.add rank (Plan.join_of ~op ~edge_ids:ids ~sel ~card ~cost left right);
      ids
    end
    else ids
  end

(* EmitCsgCmp for two plans: one pass over the edges incident to the
   smaller side finds the connecting edges (selectivity product in
   ascending id order, operator resolution) and the pending ones
   (rejecting the pair if one is non-inner); a second pass, only when
   something is pending, folds their selectivities in descending id
   order.  Both fold orders are part of the byte-identity contract in
   emit.mli.  Then each valid argument order is costed: both for a
   commutative operator, the edge-dictated one otherwise, and in
   [directed] mode only those with p1 on the left.  Returns whether the
   pair resolved and passed the filter. *)
let join_pair t ~directed (p1 : Plan.t) (p2 : Plan.t) =
  let g = t.g and s1 = p1.set and s2 = p2.set in
  let small = smaller s1 s2 and both = Ns.union s1 s2 in
  let cnt = G.incident_edges g small in
  let nconn = ref 0 and npend = ref 0 and valid = ref true in
  let conn_sel = ref 1.0 in
  (* the one non-inner connecting edge, if any, dictates the operator
     and its orientation; two of them cannot be combined *)
  let rule = ref (-1) and rule_forward = ref true in
  for i = 0 to cnt - 1 do
    let id = G.incident_edge g i in
    match role g s1 s2 ~small ~both id with
    | Apart -> ()
    | Pending ->
        incr npend;
        if (G.edge g id).op.Op.kind <> Op.Inner then valid := false
    | (Forward | Backward) as r ->
        let e = G.edge g id in
        incr nconn;
        conn_sel := !conn_sel *. e.sel;
        if e.op.Op.kind <> Op.Inner then
          if !rule < 0 then begin
            rule := id;
            rule_forward := r = Forward
          end
          else valid := false
  done;
  if !nconn = 0 || not !valid then false
  else begin
    let pend_sel = ref 1.0 in
    if !npend > 0 then
      for i = cnt - 1 downto 0 do
        let id = G.incident_edge g i in
        match role g s1 s2 ~small ~both id with
        | Pending -> pend_sel := !pend_sel *. (G.edge g id).sel
        | Apart | Forward | Backward -> ()
      done;
    let sel = !conn_sel *. !pend_sel in
    let passes =
      match t.filter with
      | None -> true
      | Some f ->
          f s1 s2 (connecting g ~cnt s1 s2)
          ||
          (t.counters.Counters.filter_rejected <-
             t.counters.Counters.filter_rejected + 1;
           false)
    in
    if passes then begin
      let op = if !rule < 0 then Op.join else (G.edge g !rule).op in
      let fwd = !rule_forward and npend = !npend in
      let ids =
        if directed && not fwd then []
        else candidate t ~rank:0 ~op ~sel ~cnt ~npend ~ids:[] ~first:fwd p1 p2
      in
      if Op.commutative op && not (directed && fwd) then
        ignore
          (candidate t ~rank:1 ~op ~sel ~cnt ~npend ~ids ~first:(not fwd) p1
             p2)
    end;
    passes
  end

let emit t ~directed s1 s2 =
  match t.find s1, t.find s2 with
  | Some p1, Some p2 ->
      if join_pair t ~directed p1 p2 then
        t.counters.Counters.ccp_emitted <- t.counters.Counters.ccp_emitted + 1
  | _ -> ()

let emit_pair t s1 s2 = emit t ~directed:false s1 s2

let emit_directed t s1 s2 = emit t ~directed:true s1 s2

let candidates ~model ~counters g p1 p2 =
  let acc = ref [] in
  let t =
    make_with ~model ~counters g
      ~find:(fun _ -> None)
      ~admits:(fun _ _ -> true)
      ~add:(fun _rank plan -> acc := plan :: !acc)
  in
  ignore (join_pair t ~directed:false p1 p2);
  List.rev !acc
