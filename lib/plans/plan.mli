(** Bushy join plans — the entries of the dynamic programming table.

    Every plan node records the set of relations it covers, its
    estimated output cardinality, and its accumulated cost under the
    cost model active during optimization.  Join nodes remember which
    hyperedges they applied so that the original predicates (and the
    operator, per Section 5.4's "associate with each hyperedge the
    operator from which it was derived") can be recovered.  Which
    edges a whole plan has applied is derived state: a plan over [S]
    built by [Core.Emit] has applied exactly the edges whose cover
    lies inside [S], so plans store no applied-edge set. *)

type t = {
  set : Nodeset.Node_set.t;  (** relations covered *)
  card : float;  (** estimated output cardinality *)
  cost : float;  (** total cost including subplans *)
  tree : tree;
}

and tree =
  | Scan of int  (** base relation access *)
  | Join of join
  | Compound of compound
      (** materialized sub-plan standing in as a leaf — the unit of
          iterative dynamic programming (IDP), where a block of
          relations is optimized exactly and then contracted to a
          single node of a coarser graph *)

and join = {
  op : Relalg.Operator.t;
      (** operator actually applied — already switched to its
          dependent variant when Section 5.6's test fired *)
  edge_ids : int list;
      (** hyperedges whose predicates were applied at this node:
          the connecting edges, plus any pending inner edge that this
          join is the first to cover *)
  sel : float;
      (** combined selectivity of the applied predicates, kept so a
          plan built on a contracted graph can be re-costed
          node-for-node on the original graph (see Idp) *)
  left : t;
  right : t;
}

and compound = {
  node : int;  (** the node this leaf occupies in {e its} graph *)
  sub : t;
      (** the materialized plan; its node sets refer to a different
          (finer) graph than the plan containing this leaf *)
}

val scan : Hypergraph.Graph.t -> int -> t
(** Plan for a single relation: cost 0, cardinality from catalog. *)

val materialized : int -> t -> t
(** [materialized i sub] — a leaf at node [i] of a coarser graph
    standing for the already-optimized plan [sub] (over a finer
    graph).  Cardinality and cost are taken from [sub], so enumeration
    on the coarse graph accounts for the work already committed inside
    the block. *)

val join :
  Costing.Cost_model.t ->
  op:Relalg.Operator.t ->
  edge_ids:int list ->
  sel:float ->
  t -> t -> t
(** [join model ~op ~edge_ids ~sel l r] — a join node with estimated
    cardinality and cost filled in. *)

val join_cost :
  Costing.Cost_model.t -> op:Relalg.Operator.t -> t -> t -> card:float -> float
(** The cost {!join} gives a node over [l] and [r] producing [card]
    rows: both inputs' costs plus the model's operator cost. *)

val join_of :
  op:Relalg.Operator.t ->
  edge_ids:int list ->
  sel:float ->
  card:float ->
  cost:float ->
  t -> t -> t
(** {!join} with cardinality and cost already computed — by
    [Cardinality.estimate] and {!join_cost}, which is what lets the
    emitter compare a candidate's cost with the table before
    allocating it.  Passing other figures makes an inconsistent
    plan. *)

val num_joins : t -> int

val leaves : t -> int list
(** Relation indices, left-to-right plan order.  Compound leaves
    contribute the leaves of their sub-plan (i.e. indices in the
    sub-plan's graph). *)

val is_left_deep : t -> bool

val shape_equal : t -> t -> bool
(** Structural equality of the join trees, ignoring costs. *)

val estimates : t -> (Nodeset.Node_set.t * float) list
(** [(relations, estimated cardinality)] of every plan node in
    postorder (children before parents, leaves included).  The
    relation set equals [T(subtree)] of the operator tree
    {!to_optree} emits, so EXPLAIN ANALYZE joins these annotations
    against executed row counts by set. *)

val to_optree : Hypergraph.Graph.t -> t -> Relalg.Optree.t
(** Re-materialize the plan as an operator tree: each join node
    carries the conjunction of its edges' predicates, the nestjoin
    aggregates if any, and the recovered operator.  Leaf numbering is
    the plan's, i.e. not necessarily left-to-right — the executor does
    not care.  @raise Invalid_argument on an unflattened compound
    leaf, whose sub-plan refers to a different graph. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering like [((R0 join R1) leftouter R2)]. *)

val pp_verbose : Hypergraph.Graph.t -> Format.formatter -> t -> unit
(** Multi-line rendering with names, cardinalities and costs. *)

val to_string : t -> string
