(** One-call driver for the whole optimization pipeline.

    The layered API (simplify → analyze → derive → enumerate) is what
    the examples teach; this module is the convenience wrapper a
    downstream user actually calls:

    {[
      match Driver.Pipeline.optimize_sql "SELECT * FROM a JOIN b ON a.k = b.k" with
      | Ok r -> Format.printf "%a@." Plans.Plan.pp r.plan
      | Error msg -> prerr_endline msg
    ]} *)

type conflict_mode =
  | Tes_literal  (** the paper's CalcTES with the literal path gate *)
  | Tes_conservative
      (** CalcTES with the widened gate (reproduces Figure 8a) *)
  | Tes_generate_and_test
      (** SES edges plus a TES validity filter (Section 5.8 baseline) *)
  | Cdc  (** the SIGMOD 2013 rule-based successor *)

type result = {
  tree : Relalg.Optree.t;  (** after simplification *)
  graph : Hypergraph.Graph.t;
  plan : Plans.Plan.t;
  counters : Core.Counters.t;
  dp_entries : int;  (** DP/memo table size of the winning run *)
  tier : Core.Adaptive.tier option;
      (** which adaptive rung produced the plan; [None] unless
          [algo = Adaptive] *)
  profile : Obs.Metrics.profile option;
      (** structured per-phase profile (spans, counter snapshot,
          tier attempts); [None] unless [?obs] was passed *)
}

val budget_error : string
(** The message every entry point returns when a non-adaptive
    algorithm exhausts its work budget. *)

type plan_cache = Core.Optimizer.result Cache.Plan_cache.t
(** A concurrent memoized plan cache for repeated optimizer traffic.
    One cache may serve every entry point of this module from any
    number of domains at once (it is the {!run_batch} companion for
    replayed workloads).  Keys are exact — canonical fingerprint for
    sharding plus the verbatim serialized graph and optimizer
    parameters — so a hit returns a result byte-identical (plan tree,
    cost, counters, tier) to what a fresh enumeration would produce.
    [jobs] is not part of the key: parallel enumeration output is
    byte-identical to sequential, so one entry serves every jobs
    count.  Conflict modes that need a validity filter
    ({!Tes_generate_and_test}, {!Cdc}) bypass the cache — a filter is
    a closure the key cannot capture. *)

val make_cache : ?shards:int -> capacity:int -> unit -> plan_cache
(** [Cache.Plan_cache.create] at the pipeline's value type. *)

val cache_metrics : plan_cache -> Obs.Metrics.cache_stats
(** Snapshot the cache counters into the plain-int record profiles
    carry (what [joinopt cache-stats] prints). *)

val export_cache_stats : Obs.Export.t -> plan_cache -> unit
(** Publish the cache's counters and occupancy into the telemetry
    registry: [joinopt_plan_cache_requests_total{outcome=...}],
    [joinopt_plan_cache_evictions_total], per-shard
    [joinopt_plan_cache_entries{shard=...}] gauges and the capacity
    gauge.  Call before rendering an export — the values are absolute
    snapshots, safe to re-publish at any time. *)

val optimize_tree :
  ?obs:Obs.Span.ctx ->
  ?tel:Obs.Export.t ->
  ?cache:plan_cache ->
  ?inspect:Inspect.Provenance.t ->
  ?mode:conflict_mode ->
  ?algo:Core.Optimizer.algorithm ->
  ?model:Costing.Cost_model.t ->
  ?budget:int ->
  ?k:int ->
  ?dpconv_objective:Core.Dpconv.objective ->
  ?jobs:int ->
  ?cards:(int -> float) ->
  ?sels:(int -> float) ->
  Relalg.Optree.t ->
  (result, string) Result.t
(** Simplify, run conflict analysis under [mode] (default
    {!Tes_literal}), derive the hypergraph, optimize with [algo]
    (default DPhyp).  [?obs] records one span per pipeline phase
    ([simplify], [conflict-analysis], [hypergraph-derive],
    [enumerate:<algo>] plus the per-tier / per-round spans inside it)
    and fills the result's [profile]; omitting it runs the completely
    un-instrumented path.  [?budget], [?k] and [?dpconv_objective]
    are forwarded to {!Core.Optimizer.run}; a non-adaptive algorithm
    that blows the budget yields [Error] rather than an exception.
    The dpconv objective is part of the plan-cache key (it changes
    the plan); other algorithms ignore it and keep their keys.  [?jobs] (default
    1) enumerates on that many domains via {!Parallel.Par_dphyp} —
    the plan is byte-identical to the sequential one for every value;
    only DPhyp has a parallel decomposition, so [jobs > 1] with any
    other algorithm is an [Error].  [Error] carries a human-readable
    reason (invalid tree, no plan, algorithm/filter mismatch, budget
    exhausted).

    [?cache] memoizes the enumeration step: the lookup (and, on a
    miss, the nested enumeration) runs under a [cache] span whose
    [cache] attribute records [hit] / [miss] / [coalesced], and the
    result's [profile] gains the cache-counter snapshot.  Parse,
    simplification, conflict analysis and graph derivation always run
    — they produce the key — so a hit costs one fingerprint plus one
    serialization instead of an enumeration.

    [?inspect] records search-space provenance into the given
    recorder: every DP table the enumeration creates hooks itself
    ({!Inspect.Provenance.with_recording}), so after the call the
    recorder holds the champion history and pruning statistics behind
    [joinopt inspect] / [joinopt why].  A recorded request bypasses
    [?cache] (a cache hit has no decision trail) and requires
    [jobs = 1] — the hook is ambient, single-domain state — yielding
    [Error] otherwise.  The result's [profile] and the [?tel] flight
    recorder gain the top-3 costliest memo subsets as a provenance
    summary.

    [?tel] is always-on serving telemetry, independent of [?obs]
    (without [?obs] the request collects its spans privately).
    Everything is derived from the request's own spans and result:
    the request's wall clock goes into
    [joinopt_optimize_latency_seconds{algo,cache,result}], its
    depth-0 spans into [joinopt_phase_latency_seconds{phase}], its
    [tier:<name>] spans (adaptive) into
    [joinopt_tier_latency_seconds{tier}], and the [d<i>_merge_ms]
    attributes of a parallel enumeration's [enumerate:dphyp-par] span
    into [joinopt_parallel_merge_seconds{domain}].  A flat entry —
    fingerprint, relations, tier, cache outcome, pairs, wall clock,
    this domain's allocation — goes into the registry's flight
    recorder, which keeps the full span tree for requests over the
    slow threshold.  A cache hit or coalesced wait is recorded with
    0 pairs (it enumerated nothing), though its result carries the
    cached counters.  Requests that fail before a hypergraph exists
    (invalid tree, unparseable SQL) record nothing. *)

val prepare :
  ?obs:Obs.Span.ctx ->
  ?conservative:bool ->
  Relalg.Optree.t ->
  (Relalg.Optree.t * Hypergraph.Graph.t, string) Result.t
(** The front half of {!optimize_tree} under {!Tes_literal} (or
    {!Tes_conservative} when [conservative]): validate, simplify,
    analyze conflicts and derive the hypergraph, under the same
    spans.  Returns the simplified tree and its graph, for callers
    that adjust the graph (e.g. calibrate it on data) before handing
    it to {!optimize_graph}. *)

val optimize_sql :
  ?obs:Obs.Span.ctx ->
  ?tel:Obs.Export.t ->
  ?cache:plan_cache ->
  ?inspect:Inspect.Provenance.t ->
  ?mode:conflict_mode ->
  ?algo:Core.Optimizer.algorithm ->
  ?model:Costing.Cost_model.t ->
  ?budget:int ->
  ?k:int ->
  ?dpconv_objective:Core.Dpconv.objective ->
  ?jobs:int ->
  ?cards:(int -> float) ->
  ?sels:(int -> float) ->
  string ->
  (result, string) Result.t
(** Parse + bind (under a [parse] span) + {!optimize_tree}. *)

val optimize_graph :
  ?obs:Obs.Span.ctx ->
  ?tel:Obs.Export.t ->
  ?cache:plan_cache ->
  ?inspect:Inspect.Provenance.t ->
  ?algo:Core.Optimizer.algorithm ->
  ?model:Costing.Cost_model.t ->
  ?budget:int ->
  ?k:int ->
  ?dpconv_objective:Core.Dpconv.objective ->
  ?jobs:int ->
  Hypergraph.Graph.t ->
  (result, string) Result.t
(** Plain-hypergraph entry point (inner joins / pre-built edges); the
    [tree] field of the result is the optimized plan re-materialized
    as an operator tree (under a [plan-emit] span when observed). *)

val run_batch :
  ?sink:Obs.Sink.t ->
  ?pool:Parallel.Pool.t ->
  ?tel:Obs.Export.t ->
  ?cache:plan_cache ->
  ?mode:conflict_mode ->
  ?algo:Core.Optimizer.algorithm ->
  ?model:Costing.Cost_model.t ->
  ?budget:int ->
  ?k:int ->
  jobs:int ->
  Relalg.Optree.t list ->
  (result, string) Result.t list
(** Inter-query parallelism: optimize a batch of operator trees
    concurrently on a pool of [jobs] domains (one task per query,
    each query running the ordinary sequential pipeline), returning
    per-query results in input order.  Queries share nothing but the
    optional [?sink] and [?cache]: each gets a private span context
    whose spans stream into the sink ({!Obs.Sink.emit} is
    thread-safe), its profile lands in the query's own [result], and
    cache hits/misses/coalesced waits are safe from every worker
    domain (duplicate queries within one batch are optimized once —
    single flight).  [?pool] reuses an existing Domain pool across
    batches — the replay-serving configuration, keeping workers warm
    instead of spawning a pool per call — in which case [jobs] is
    ignored and the pool's own worker count applies; by default a
    fresh pool of [jobs] domains is created and shut down, exactly
    as before.  A task that raises something other than the
    pipeline's handled errors aborts the whole batch. *)

val verify_on_data :
  ?rows:int -> ?seed:int -> result -> (int, string) Result.t
(** Execute the chosen plan and the initial tree on a generated
    instance and compare bags; [Ok n] is the common tuple count. *)
