(** Measured execution statistics.

    The C_out cost of a plan is by definition the sum of its
    intermediate result sizes — so it can be {e measured} by running
    the plan, giving a ground truth to hold the optimizer's estimates
    against (benchmark [xqual] and the estimation tests do exactly
    that). *)

val cout : Exec.op_stat list -> float
(** Sum of [rows_out] over the interior operators of one
    {!Exec.eval_stats} run (base-table scans excluded, matching the
    C_out model's treatment of scans as free). *)

val actual_cout : Instance.t -> Relalg.Optree.t -> float
(** [cout] of one single-pass execution of the tree.  Under a
    dependent join a subtree counts the total across all its
    invocations. *)
