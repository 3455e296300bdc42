(** Tuple-at-a-time evaluation of operator trees.

    Implements all twelve operators of Section 5.1 with SQL semantics:

    - inner join: matching combinations;
    - left outer join: plus NULL-padded left survivors;
    - full outer join: plus NULL-padded right survivors;
    - left semijoin / antijoin: left rows with / without partners;
    - nestjoin: per the paper's definition
      [R T S = { r ∘ s(r) | r ∈ R }] — the right side's attributes are
      replaced by the aggregate results, bound under the smallest
      right-side table index;
    - dependent variants: the right subtree is re-evaluated for every
      left tuple with the left tuple's bindings in scope (apply /
      outer apply / ...).

    Nested-loop evaluation throughout: this is a correctness oracle
    for the optimizer, not a performance engine. *)

val eval : Instance.t -> Relalg.Optree.t -> Env.t list
(** Evaluate a closed tree (no free variables at the root). *)

val eval_env : Instance.t -> outer:Env.t -> Relalg.Optree.t -> Env.t list
(** Evaluate with outer bindings in scope (dependent subtrees). *)

type op_stat = {
  tables : Nodeset.Node_set.t;
      (** T(subtree) — unique within a tree and equal to the [set] of
          the plan node that emitted the operator, so estimates can be
          joined against actuals *)
  op : Relalg.Operator.t option;  (** [None] for leaves *)
  rows_out : int;
      (** tuples this operator produced over the whole execution
          (summed over invocations for dependent subtrees) *)
  invocations : int;
      (** 1 everywhere except under a dependent join, where the right
          subtree runs once per outer tuple *)
  pred_evals : int;  (** predicate evaluations at this operator *)
  wall_s : float;  (** inclusive wall clock, children included *)
}

val eval_stats :
  ?obs:Obs.Span.ctx ->
  Instance.t ->
  Relalg.Optree.t ->
  Env.t list * op_stat list
(** Evaluate a closed tree while collecting per-operator runtime
    statistics in the {e same} single pass (the executed tree is not
    re-evaluated per node).  Statistics are reported in
    postorder, children before parents, leaves included.  [?obs]
    wraps the run in an ["execute"] span annotated with result rows,
    operator count and total predicate evaluations. *)

val output_tables : Relalg.Optree.t -> int list
(** Tables bound in the result envs: all leaf tables, with nestjoin
    right-side tables collapsed to the aggregate carrier table. *)
