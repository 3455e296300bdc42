(** EmitCsgCmp (Section 3.5): turn a csg-cmp-pair into plans.

    Shared by every enumeration strategy in this library.  Given a
    pair of disjoint connected sets, it collects the connecting
    hyperedges, conjoins their predicates (selectivities multiply
    under independence), recovers the operator associated with the
    edge (Section 5.4), switches it to its dependent counterpart when
    [FT(P2) ∩ S1 ≠ ∅] (Section 5.6), costs the candidate plans and
    updates the DP table.

    Commutativity handling follows Section 2.2: the enumerators
    produce each pair once, so for commutative operators this module
    costs both argument orders. *)

type filter =
  Nodeset.Node_set.t ->
  Nodeset.Node_set.t ->
  (Hypergraph.Hyperedge.t * Hypergraph.Hyperedge.orientation) list ->
  bool
(** Extra validity test applied before plan construction — the
    TES-generate-and-test mode of Section 5.8 plugs in here.  Receives
    the pair ordered as given to {!emit_pair} and its connecting
    edges, as {!Hypergraph.Graph.connecting_edges} returns them. *)

type t
(** Emission context: graph, cost model, table access, counters,
    filter, bound. *)

val make :
  ?filter:filter ->
  ?bound:float ->
  model:Costing.Cost_model.t ->
  counters:Counters.t ->
  Hypergraph.Graph.t ->
  Plans.Dp_table.t ->
  t
(** [bound] (default [infinity]) is a known upper bound on the optimal
    plan cost — e.g. the certified bound of [Dpconv]'s C_out mode.
    Candidates costing more never enter the DP table, which in turn
    prunes every enumeration subtree they would have seeded.  Sound
    whenever the cost model is additive with non-negative join costs:
    each subplan of an optimal plan costs at most the optimum, so the
    surviving table (and the final plan) is identical to the unbounded
    run's. *)

val make_with :
  ?filter:filter ->
  find:(Nodeset.Node_set.t -> Plans.Plan.t option) ->
  admits:(Nodeset.Node_set.t -> float -> bool) ->
  add:(int -> Plans.Plan.t -> unit) ->
  model:Costing.Cost_model.t ->
  counters:Counters.t ->
  Hypergraph.Graph.t ->
  t
(** {!make} over any table: [find] resolves each side's best plan;
    [admits s cost] says whether a candidate over [s] of that cost
    could enter the table (answering [true] is always safe, it
    only costs an allocation); [add rank plan] receives each built
    candidate.  [rank] is the candidate's place within its pair — 0
    for the first (given or edge-dictated) argument order, 1 for the
    commutative swap — which the parallel sharded table folds into
    its deterministic tie-break.  {!make} is [make_with] over
    [Dp_table.find], [Dp_table.admits] and [Dp_table.update], plus
    the bound. *)

val emit_pair : t -> Nodeset.Node_set.t -> Nodeset.Node_set.t -> unit
(** Canonical emission for symmetric enumerators (DPhyp, DPccp): the
    pair is unordered; both argument orders are tried for commutative
    operators, and the operator's own orientation (which side is the
    hyperedge's [u]) decides the order for non-commutative ones.
    Counts one [ccp_emitted] when the pair resolves and passes the
    filter; no-op if no edge connects the pair. *)

val emit_directed : t -> Nodeset.Node_set.t -> Nodeset.Node_set.t -> unit
(** Directed emission for ordered enumerators (DPsize, DPsub, naive
    top-down): costs only the candidate with the first argument on
    the left, exactly like Figure 1's [dpTable[S1] B dpTable[S2]]; the
    symmetric candidate arises when the loop visits the swapped pair.
    No-op if no edge supports this direction. *)

val candidates :
  model:Costing.Cost_model.t ->
  counters:Counters.t ->
  Hypergraph.Graph.t ->
  Plans.Plan.t ->
  Plans.Plan.t ->
  Plans.Plan.t list
(** Every valid plan for the (unordered) pair, in emission order —
    the same core with a table that admits everything.  Empty when no
    edge connects the pair or every orientation is invalid.  Used by
    the algorithms that keep their own best-plan state (GOO, top-down
    search, plan sampling, [Inspect.Why]).  Unlike the emitters it
    does not count [ccp_emitted]. *)

(** {2 The emission contract}

    All entry points above run one core, once per pair [(S1, S2)]:

    - {b Resolution.}  The edges met by both sides are read off
      per-node incident-edge bitsets built once by
      {!Hypergraph.Graph.make}: per 62-bit word of edge ids, the OR
      over the smaller side is AND-ed with the OR over the part of the
      bigger side that the smaller one touches through some edge
      ({!Hypergraph.Graph.pair_edges}); a word that is 0 on the smaller
      side is skipped.  Set bits come out in ascending id order, with
      no gather, sort or allocation.  A simple inner edge among them
      connects the pair, and its selectivity is multiplied in from an
      unboxed per-edge array; every other edge is classified.
      Connecting edges (Definition 7) are conjoined.  If exactly one
      of them is non-inner, its operator and orientation decide the
      join (Section 5.4); two non-inner ones cannot be combined and
      reject the pair.  Pending edges are those whose cover lies
      inside [S1 ∪ S2] but inside neither side.  Their predicates
      have not been applied below, because a plan over [S] has applied
      exactly the edges whose cover lies inside [S]; no per-plan state
      is read.  Pending inner predicates are conjoined here as
      filters, and a pending non-inner edge rejects the pair.  The cost
      is one OR per member of the smaller side and per touched member
      of the bigger side for each edge-id word, plus one step per edge
      met by both sides — not O(E).
    - {b Cost first.}  Each valid argument order gets its operator
      (after the dependent switch of Section 5.6), cardinality and
      cost as plain floats, and counts one [cost_calls].  Only a
      candidate within [bound] that the table admits is turned into a
      {!Plans.Plan.t}.  Losers allocate nothing.  With a provenance
      hook on the table every candidate is admitted, so the hook's
      [Rejected] events stay exact.
    - {b Byte identity.}  Plans equal those of the list-based resolver
      this core replaced, bit for bit.  This holds because [sel] is
      the product of the connecting selectivities in ascending edge-id
      order, multiplied by the product of the pending ones folded in
      descending id order.  [edge_ids] is the connecting ids ascending
      followed by the pending ids ascending.  Candidate order is
      fixed too: the given (or edge-dictated) order first, then the
      commutative swap. *)
