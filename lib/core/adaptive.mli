(** Budgeted adaptive optimization: exact DPhyp, then IDP-k with
    shrinking k, then GOO.

    The graceful-degradation ladder the ROADMAP asks for.  Under a
    deterministic work budget (counted in considered pairs — see
    {!Counters}), the optimizer first attempts exact DPhyp; if the
    budget runs out it retries with {!Idp.solve} for each block size
    in the shrinking schedule [ks], each attempt on a fresh budget
    (smaller k = exponentially less work per round, so some rung fits
    unless the budget is tiny); if every DP rung is exhausted it falls
    back to unbudgeted {!Goo}, which always answers.  The outcome
    records which tier produced the plan and what every abandoned
    attempt cost, so clients and benchmarks can report degradation
    honestly.

    Everything is deterministic: the same graph, budget and schedule
    always produce the same tier, the same counters and the same
    plan — no wall-clock measurements are involved. *)

type tier =
  | Exact  (** full DPhyp finished within budget *)
  | Partitioned
      (** the large-query tier ({!Partition.solve}): per-block exact
          DP + IDP stitch — entered first, instead of [Exact], for
          queries wider than {!Nodeset.Node_set.small_capacity}
          relations *)
  | Idp_k of int  (** IDP with this block size produced the plan *)
  | Greedy  (** budget forced the fall back to GOO *)
  | Conv
      (** the subset-convolution plan answered: its certified bound
          met the C_max lower bound (provably optimal, exact rung
          skipped), or the bound-pruned exact rung blew the budget and
          the dpconv plan is the best complete plan in hand *)

val tier_name : tier -> string
(** ["exact"], ["partitioned"], ["idp-<k>"], ["greedy"], ["dpconv"] —
    used by the CLI and the benchmark JSON. *)

type attempt = {
  tier : tier;
  completed : bool;
      (** false when the budget ran out mid-attempt; true when the
          attempt ran to completion (with or without a plan) *)
  pairs : int;  (** pairs the attempt consumed before stopping *)
}

type outcome = {
  plan : Plans.Plan.t option;
      (** [None] only if even GOO fails (disconnected graph whose
          cross-product fallback is disabled — not reachable through
          {!Optimizer.run} on connected inputs) *)
  tier : tier;  (** the tier that produced [plan] *)
  counters : Counters.t;  (** counters of the winning attempt *)
  dp_entries : int;  (** DP table size of the winning attempt; 0 for
                         IDP/GOO tiers *)
  attempts : attempt list;  (** every attempt, in execution order *)
}

val default_ks : int list
(** The shrinking block-size schedule [[10; 7; 5; 3]]. *)

val solve :
  ?obs:Obs.Span.ctx ->
  ?model:Costing.Cost_model.t ->
  ?budget:int ->
  ?ks:int list ->
  Hypergraph.Graph.t ->
  outcome
(** Run the ladder.  [?obs] records one ["tier:<name>"] span per
    attempted rung (with the pairs it consumed, and a ["raised"] tag
    when the budget cut it short), nesting the per-round IDP spans
    underneath.  Without [?budget] the exact tier always completes
    and the outcome equals plain DPhyp (tier {!Exact}).  Queries with
    more relations than {!Nodeset.Node_set.small_capacity} skip the
    exact rung and start at {!Partitioned} instead.  Schedule entries
    with [k >= n] or [k < 2] are skipped.  Never raises
    {!Counters.Budget_exhausted}.

    Dense simple graphs (≥ 12 relations within
    {!Dpconv.max_relations}, ≥ 40% of the complete graph's edges,
    {!Dpconv.supported}) get a subset-convolution pre-tier: [Dpconv]'s
    C_out mode computes a certified upper bound whose witness plan is
    kept in hand, the bound prunes the exact DPhyp rung, and when the
    bound already meets the C_max lower bound (C_out model only) the
    exact rung is skipped — tier {!Conv}.  The exact rung's result is
    unchanged by the pruning; only its cost drops. *)

val loss_report :
  ?model:Costing.Cost_model.t ->
  Hypergraph.Graph.t ->
  outcome ->
  string option
(** What did graceful degradation cost?  When the ladder fell back
    (winning tier other than {!Exact}) and the graph is small enough
    to solve exactly, re-solves with unbudgeted DPhyp and renders the
    aligned {!Plans.Plan_diff} of the tier's plan against the exact
    optimum, columns labeled with {!tier_name} / ["exact"].  [None]
    when the ladder already won exactly, produced no plan, or no
    exact baseline is computable. *)
