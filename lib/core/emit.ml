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

(* The part an edge met by both sides plays in joining s1 and s2.  A
   plan over S has applied exactly the edges whose cover lies inside
   S, so an edge is pending — covered by this join, applied by neither
   side, and not connecting — iff its cover lies inside s1 ∪ s2 but
   not inside either side.  The edges resolved here all meet both
   sides, so none lies inside either one, and every non-connecting
   edge inside s1 ∪ s2 is pending. *)
type role = Apart | Forward | Backward | Pending

let role g s1 s2 id =
  (* cover ⊆ s1 ∪ s2, without building the union *)
  if not (Ns.subset (Ns.diff (G.edge_cover g id) s1) s2) then Apart
  else
    (* [He.orient], less its [w ⊆ s1 ∪ s2] test, which the cover test
       has just made *)
    let e = G.edge g id in
    if Ns.subset e.u s1 && Ns.subset e.v s2 then Forward
    else if Ns.subset e.u s2 && Ns.subset e.v s1 then Backward
    else Pending

let bits = Ns.Words.bits

(* Connecting ids ascending, then pending ids ascending: consed while
   walking the ids downwards, pending ones first.  Built only for a
   winning candidate. *)
let edge_ids g ~npend ~small ~big s1 s2 =
  let acc = ref [] in
  if npend > 0 then
    for k = G.edge_words g - 1 downto 0 do
      let m =
        ref (G.pair_edges g small big k land lnot (G.simple_inner g k))
      in
      while !m <> 0 do
        let b = Ns.Words.highest_bit !m in
        m := !m lxor (1 lsl b);
        let id = (k * bits) + b in
        match role g s1 s2 id with
        | Pending -> acc := id :: !acc
        | Apart | Forward | Backward -> ()
      done
    done;
  for k = G.edge_words g - 1 downto 0 do
    let simple = G.simple_inner g k in
    let m = ref (G.pair_edges g small big k) in
    while !m <> 0 do
      let b = Ns.Words.highest_bit !m in
      let bit = 1 lsl b in
      m := !m lxor bit;
      let id = (k * bits) + b in
      if bit land simple <> 0 then acc := id :: !acc
      else
        match role g s1 s2 id with
        | Forward | Backward -> acc := id :: !acc
        | Apart | Pending -> ()
    done
  done;
  !acc

(* One argument order of a resolved pair — p1 on the left iff [first].
   Rejects orders whose left argument depends on the right one,
   applies the dependent switch of Section 5.6, costs the candidate,
   and builds its plan only if it is within the bound and the table
   admits it.  [ids] is the pair's edge-id list once built, [] before;
   the (possibly new) list is returned so both orders share it. *)
let candidate t ~rank ~op ~sel ~npend ~small ~big ~ids ~first (p1 : Plan.t)
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
    (* both floats are inlined arithmetic; [Sys.opaque_identity] boxes
       each once, so the cost model, [admits] and the plan record share
       one box instead of each boxing its own copy *)
    let card =
      Sys.opaque_identity
        (Costing.Cardinality.estimate op left.card right.card sel)
    in
    let cost =
      Sys.opaque_identity (Plan.join_cost t.model ~op left right ~card)
    in
    if cost <= t.bound && t.admits (Ns.union p1.set p2.set) cost then begin
      let ids =
        match ids with
        | [] -> edge_ids g ~npend ~small ~big p1.set p2.set
        | l -> l
      in
      t.add rank (Plan.join_of ~op ~edge_ids:ids ~sel ~card ~cost left right);
      ids
    end
    else ids
  end

(* EmitCsgCmp for two plans: one ascending walk over the ids of the
   edges met by both sides ([G.pair_edges]) finds the connecting edges
   (selectivity product in ascending id order, operator resolution)
   and the pending ones (rejecting the pair if one is non-inner).  A
   simple inner edge met by both sides connects them, so its
   selectivity is multiplied in without classifying it.  A second,
   descending walk, only when something is pending, folds their
   selectivities in descending id order.  Both fold orders are part of
   the byte-identity contract in emit.mli.  Then each valid argument
   order is costed: both for a commutative operator, the edge-dictated
   one otherwise, and in [directed] mode only those with p1 on the
   left.  Returns whether the pair resolved and passed the filter. *)
let join_pair t ~directed (p1 : Plan.t) (p2 : Plan.t) =
  let g = t.g and s1 = p1.set and s2 = p2.set in
  let swap = Ns.cardinal s1 > Ns.cardinal s2 in
  let small = if swap then s2 else s1 and big = if swap then s1 else s2 in
  let nconn = ref 0 and npend = ref 0 and valid = ref true in
  let conn_sel = ref 1.0 in
  (* the one non-inner connecting edge, if any, dictates the operator
     and its orientation; two of them cannot be combined *)
  let rule = ref (-1) and rule_forward = ref true in
  for k = 0 to G.edge_words g - 1 do
    let simple = G.simple_inner g k in
    let m = ref (G.pair_edges g small big k) in
    while !m <> 0 do
      let bit = !m land (- !m) in
      m := !m lxor bit;
      let id = (k * bits) + Ns.Words.lowest_bit bit in
      if bit land simple <> 0 then begin
        incr nconn;
        conn_sel := !conn_sel *. G.edge_sel g id
      end
      else
        match role g s1 s2 id with
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
    done
  done;
  if !nconn = 0 || not !valid then false
  else begin
    let pend_sel = ref 1.0 in
    if !npend > 0 then
      for k = G.edge_words g - 1 downto 0 do
        let m =
          ref (G.pair_edges g small big k land lnot (G.simple_inner g k))
        in
        while !m <> 0 do
          let b = Ns.Words.highest_bit !m in
          m := !m lxor (1 lsl b);
          let id = (k * bits) + b in
          match role g s1 s2 id with
          | Pending -> pend_sel := !pend_sel *. G.edge_sel g id
          | Apart | Forward | Backward -> ()
        done
      done;
    let sel = !conn_sel *. !pend_sel in
    let passes =
      match t.filter with
      | None -> true
      | Some f ->
          f s1 s2 (G.connecting_edges g s1 s2)
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
        else
          candidate t ~rank:0 ~op ~sel ~npend ~small ~big ~ids:[] ~first:fwd
            p1 p2
      in
      if Op.commutative op && not (directed && fwd) then
        ignore
          (candidate t ~rank:1 ~op ~sel ~npend ~small ~big ~ids
             ~first:(not fwd) p1 p2)
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
