(* Serving benchmarks over the Zipf replay stream of
   Bench_util.replay_workload: suites cache, cache.cold and telemetry.

   cache (BENCH_cache.json, BENCH_cache_cold.json): cold is the
   per-plan cost without a cache (one full enumeration per template);
   warm is the per-request cost of replaying the stream against a
   fully resident cache from a warm Domain pool at jobs 1/2/4 — every
   request a hit.  The run aborts if any cache hit returns a plan whose
   rendering or cost differs from a fresh uncached enumeration: a
   cache that serves approximate plans is not a cache, it is a bug.
   The cache summary carries the warm jobs=1 per-request wall clock
   under "<workload>_replay_ms", its cache.cold companion the cold
   per-plan wall clock under the same key, so a 0.02 gate between
   them is "warm hit throughput at least 50x cold".

   telemetry (TELEMETRY_replay.json): the same stream served by the
   adaptive optimizer with the always-on registry attached; the
   document is the registry's obs_telemetry/v1 snapshot (latency
   histograms, cache-labeled counters, per-shard gauges, the slowest
   requests with their span trees). *)

module R = Workloads.Replay
module Pc = Cache.Plan_cache

let jobs_levels = [ 1; 2; 4 ]

let optimize_or_die ?cache g =
  match Driver.Pipeline.optimize_graph ?cache g with
  | Ok r -> r
  | Error m -> Bench_util.die "cache: optimize_graph failed: %s" m

let plan_fingerprint (r : Driver.Pipeline.result) =
  Printf.sprintf "%s cost=%.17g" (Plans.Plan.to_string r.plan)
    r.plan.Plans.Plan.cost

let run ~quick ~path =
  let name, w = Bench_util.replay_workload ~quick in
  let variants = Array.length w.R.universe in
  let requests = Array.length w.R.requests in
  Gc.compact ();
  (* best of three, like the warm replays below: both sides of the
     cold-vs-warm gate are warm samples *)
  let cold_total_ms, () =
    Bench_util.time_best (fun () ->
        Array.iter (fun g -> ignore (optimize_or_die g)) w.R.universe)
  in
  let cold_ms = cold_total_ms /. float_of_int variants in
  (* capacity comfortably above the universe: the warm phase never
     evicts *)
  let cache = Driver.Pipeline.make_cache ~capacity:(2 * variants) () in
  Array.iter (fun g -> ignore (optimize_or_die ~cache g)) w.R.universe;
  Array.iteri
    (fun i g ->
      let cached = optimize_or_die ~cache g and fresh = optimize_or_die g in
      if plan_fingerprint cached <> plan_fingerprint fresh then
        Bench_util.die
          "cache: variant %d cached plan differs from uncached\n  \
           cached: %s\n  fresh:  %s"
          i (plan_fingerprint cached) (plan_fingerprint fresh))
    w.R.universe;
  let warm jobs =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        (* unmeasured warmup replay *)
        Bench_util.replay pool cache w;
        let ms, () =
          Bench_util.time_best (fun () -> Bench_util.replay pool cache w)
        in
        let per_req = ms /. float_of_int requests in
        Bench_util.
          [
            ("jobs", Int jobs);
            ("ms_per_request", Num per_req);
            ("plans_per_sec", Num (1000.0 /. per_req));
            ("speedup_vs_cold", Num (cold_ms /. per_req));
          ])
  in
  let points = Bench_util.measure_points warm jobs_levels in
  let s = Pc.stats cache in
  let key = name ^ "_replay_ms" in
  Bench_util.write_ledger ~quick ~path ~suite:"cache" ~points
    Bench_util.
      [
        (key, List.assoc "ms_per_request" (List.hd points));
        ( "hit_ratio",
          Num
            (Obs.Export.hit_ratio ~hits:s.Pc.hits ~coalesced:s.Pc.coalesced
               ~misses:s.Pc.misses) );
        ("warm_plans_per_sec_j1", List.assoc "plans_per_sec" (List.hd points));
        ("hits", Int s.Pc.hits);
        ("misses", Int s.Pc.misses);
        ("coalesced", Int s.Pc.coalesced);
        ("evictions", Int s.Pc.evictions);
        ("entries", Int s.Pc.entries);
        ("capacity", Int s.Pc.capacity);
      ];
  Bench_util.write_ledger ~quick ~path ~suite:"cache.cold"
    ~points:
      Bench_util.
        [
          [
            ("workload", Str name);
            ("variants", Int variants);
            ("requests", Int requests);
            ("ms_per_plan", Num cold_ms);
          ];
        ]
    [ (key, Bench_util.Num cold_ms) ]

(* Promotion threshold: comfortably above a warm cache hit (tens of
   microseconds) and below a cold enumeration of the workload's star
   (~10 ms at 12 relations, far more at 16), so the promoted requests
   are exactly the misses.  The ring is sized to the stream, so the
   snapshot's top-k can name the cold misses however late the stream
   runs. *)
let telemetry ~quick ~path =
  let _, w = Bench_util.replay_workload ~quick in
  let tel =
    Obs.Export.create
      ~recorder_capacity:(2 * Array.length w.R.requests)
      ~slow_s:(if quick then 1e-3 else 1e-2)
      ()
  in
  let cache =
    Driver.Pipeline.make_cache ~capacity:(2 * Array.length w.R.universe) ()
  in
  Gc.compact ();
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      Bench_util.replay ~tel ~algo:Core.Optimizer.Adaptive pool cache w);
  Driver.Pipeline.export_cache_stats tel cache;
  Bench_util.write path (Obs.Export.to_json ~top:5 tel);
  Obs.Export.print_stats ~top:5 Format.std_formatter tel;
  Format.pp_print_flush Format.std_formatter ()
