(** Query hypergraphs (Definitions 1–4 and 6–7 of the paper).

    A hypergraph bundles the relations of a query (with cardinalities
    and free-variable sets for dependent evaluation) and its
    hyperedges.  Construction precomputes per-node indexes — simple
    neighbor masks and, as bitsets over edge ids, the complex edges and
    the edges of any kind whose cover contains each node — so that
    {!neighborhood}, {!connects} and {!connecting_edges} only examine
    edges incident to their argument sets.  It also owns a scratch
    arena that makes candidate generation allocation-free on the
    common path.

    Because of that arena, {!neighborhood}, {!candidate_hypernodes}
    and {!eligible_hypernodes} are {b not reentrant}: do not call them
    from inside a callback of another accessor on the same graph, and
    do not share a [t] between domains.  Each call fully consumes the
    arena before returning, so ordinary sequential use is safe.  Every
    other accessor only reads indexes written once by {!make}.

    The node order required by the algorithms is the natural order on
    node indices [0 .. n-1]. *)

type rel = {
  name : string;
  card : float;  (** base cardinality |R| *)
  free : Nodeset.Node_set.t;
      (** tables this relation's evaluation depends on (table-valued
          functions); drives the dependent-operator decision of
          Section 5.6 *)
}

val base_rel : ?free:Nodeset.Node_set.t -> ?card:float -> string -> rel
(** Relation descriptor; default cardinality 1000. *)

type t

val make : rel array -> Hyperedge.t array -> t
(** Build a hypergraph.  Edge ids must equal their array index (use
    {!of_edges} to have them assigned).  @raise Invalid_argument on
    inconsistent ids, out-of-range nodes, or more than
    [Node_set.max_nodes] relations. *)

val copy_scratch : t -> t
(** A copy sharing all immutable indexes but owning a fresh candidate
    arena.  The immutable parts are written once by {!make} and only
    read afterwards, so giving each domain its own copy makes the
    arena-backed accessors ({!neighborhood}, …) safe to call
    concurrently — one copy per domain, never shared. *)

val num_nodes : t -> int

val all_nodes : t -> Nodeset.Node_set.t
(** [{0..n-1}]. *)

val relation : t -> int -> rel

val cardinality : t -> int -> float

val free_of : t -> Nodeset.Node_set.t -> Nodeset.Node_set.t
(** Union of the free-variable sets of the given relations — the
    paper's [FT(P)] for the subplan over those relations. *)

val edges : t -> Hyperedge.t array
(** All edges; do not mutate. *)

val num_edges : t -> int

val edge : t -> int -> Hyperedge.t

val edge_cover : t -> int -> Nodeset.Node_set.t
(** Precomputed [u ∪ v ∪ w] of the edge with the given id. *)

val edge_sel : t -> int -> float
(** The [sel] of the edge with the given id, read from an unboxed
    per-edge array. *)

(** {2 Edge-id bitsets}

    Sets of edge ids in {!Nodeset.Node_set.Words} layout: word [k]
    holds ids [62k .. 62k+61], id [62k + i] at bit [i].  EmitCsgCmp
    resolves a pair from them without gathering or sorting. *)

val edge_words : t -> int
(** Words per edge-id bitset: [max 1 ⌈num_edges / 62⌉]. *)

val simple_inner : t -> int -> int
(** Word [k] of the ids of the simple edges with a [w]-free inner-join
    operator.  Such an edge, once it meets both sides of a pair,
    connects them. *)

val pair_edges : t -> Nodeset.Node_set.t -> Nodeset.Node_set.t -> int -> int
(** [pair_edges g small big k] is word [k] of the ids of the edges
    whose cover meets both [small] and [big]; every edge connecting or
    pending between two disjoint sets is among them.  Pass the side
    with fewer members as [small]: the cost is one OR per member of
    [small] per word, plus one per member of [big] sharing an edge
    with [small].  Allocation-free at every width. *)

val simple_neighbors : t -> int -> Nodeset.Node_set.t
(** Precomputed union of the opposite endpoints of all simple edges
    incident to a node. *)

val simple_neighborhood : t -> Nodeset.Node_set.t -> Nodeset.Node_set.t
(** Union of {!simple_neighbors} over the members of a set (not yet
    excluding the set itself). *)

val complex_edges : t -> Hyperedge.t list
(** Edges that are not simple, in id order. *)

val neighborhood : t -> Nodeset.Node_set.t -> Nodeset.Node_set.t -> Nodeset.Node_set.t
(** [neighborhood g s x] is the paper's [N(S, X)] (Equation 1):
    the union over non-subsumed eligible hypernodes [v] of [min(v)],
    where a hypernode [v] is eligible if some edge leads from inside
    [S] to [v] and [v] is disjoint from both [S] and [X].  Generalized
    edges [(u,v,w)] contribute the dynamic hypernode [v ∪ (w \ S)]
    (Section 6). *)

val candidate_hypernodes :
  t -> Nodeset.Node_set.t -> Nodeset.Node_set.t -> Nodeset.Node_set.t list
(** The raw candidate set [E♮0(S, X)] before minimization — exposed
    for tests. *)

val eligible_hypernodes :
  t -> Nodeset.Node_set.t -> Nodeset.Node_set.t -> Nodeset.Node_set.t list
(** The non-subsumed set [E♮(S, X)] itself — exposed for tests. *)

val connects : t -> Nodeset.Node_set.t -> Nodeset.Node_set.t -> bool
(** Is there an edge connecting the two disjoint sets (Def. 7)? *)

val connecting_edges :
  t -> Nodeset.Node_set.t -> Nodeset.Node_set.t ->
  (Hyperedge.t * Hyperedge.orientation) list
(** All edges connecting the pair, with orientation relative to
    [(s1, s2)] — what EmitCsgCmp conjoins into the join predicate. *)

val has_hyperedges : t -> bool
(** Any non-simple edge present? *)

val components : t -> Nodeset.Node_set.t list
(** Connected components in the weak sense (every edge glues all the
    relations it mentions); used by {!ensure_connected}. *)

val ensure_connected : t -> t
(** Section 2.1: if the graph is disconnected, add selectivity-1
    inner-join hyperedges between consecutive connected components so
    that the result is connected and describes the same query. *)

val contractible : t -> Nodeset.Node_set.t -> bool
(** Can the block be collapsed to a single node?  True iff no edge
    {e straddles} it: every edge whose cover is not fully inside the
    block has each of its two hypernodes entirely on one side of the
    block boundary.  (A straddling edge's hypernodes would overlap
    after the collapse.) *)

type contraction = {
  cgraph : t;  (** the contracted graph *)
  node_of : int array;
      (** old node → new node; every block member maps to the
          compound node *)
  edge_of : int array;
      (** new edge id → old edge id (edges fully inside the block are
          dropped; all others survive in id order) *)
}

val contract :
  t ->
  block:Nodeset.Node_set.t ->
  card:float ->
  ?name:string ->
  unit ->
  contraction
(** Collapse [block] into one compound node — the graph-side half of a
    step of iterative dynamic programming (the plan-side half is
    {!Plans.Plan.materialized}; the driver is [Core.Idp]).  The
    compound node takes the position of the block's minimal member in
    the surviving node order and carries cardinality [card] (the block
    plan's output estimate) and the block's outward free variables.
    Edges covered by the block disappear — an exact DP over the block
    applies all of them, pending inner ones included; every other edge
    keeps its payload with hypernodes mapped through [node_of].
    @raise Invalid_argument if the block has fewer than two nodes,
    mentions an out-of-range node, or is not {!contractible}. *)

val pp : Format.formatter -> t -> unit
