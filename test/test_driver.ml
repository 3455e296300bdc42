(* The one-call pipeline driver. *)

module D = Driver.Pipeline
module Op = Relalg.Operator
module Ot = Relalg.Optree
module P = Relalg.Predicate

let check = Alcotest.(check bool)

let sample_sql =
  "SELECT * FROM a JOIN b ON a.k = b.k LEFT JOIN c ON b.x = c.x \
   WHERE EXISTS (SELECT * FROM v WHERE v.k = a.k)"

let test_optimize_sql_all_modes () =
  List.iter
    (fun mode ->
      match D.optimize_sql ~mode sample_sql with
      | Ok r ->
          check "plan covers all relations" true
            (Nodeset.Node_set.equal r.D.plan.Plans.Plan.set
               (Hypergraph.Graph.all_nodes r.D.graph));
          (match D.verify_on_data r with
          | Ok _ -> ()
          | Error m -> Alcotest.fail m)
      | Error m -> Alcotest.fail m)
    D.[ Tes_literal; Tes_conservative; Tes_generate_and_test; Cdc ]

let test_modes_agree_on_inner () =
  (* pure inner joins: every conflict mode admits the full space, so
     all modes land on the same optimum *)
  let sql = "SELECT * FROM a, b, c, d WHERE a.k = b.k AND b.x = c.x AND c.y = d.y" in
  let cost mode =
    match D.optimize_sql ~mode sql with
    | Ok r -> r.D.plan.Plans.Plan.cost
    | Error m -> Alcotest.fail m
  in
  let c0 = cost D.Tes_literal in
  List.iter
    (fun mode ->
      check "same optimum" true (Float.abs (cost mode -. c0) <= 1e-9 *. c0))
    D.[ Tes_conservative; Tes_generate_and_test; Cdc ]

let test_optimize_tree () =
  let tree = Workloads.Noninner.star_antijoins ~n_rel:6 ~k:3 () in
  match D.optimize_tree ~mode:D.Tes_conservative tree with
  | Ok r ->
      check "counters populated" true
        (r.D.counters.Core.Counters.ccp_emitted > 0)
  | Error m -> Alcotest.fail m

let test_optimize_graph () =
  match D.optimize_graph (Workloads.Shapes.cycle 6) with
  | Ok r ->
      check "plan present" true (Plans.Plan.num_joins r.D.plan = 5);
      check "tree rematerialized" true (Ot.num_ops r.D.tree = 5)
  | Error m -> Alcotest.fail m

let test_errors () =
  check "parse error surfaces" true
    (match D.optimize_sql "SELECT FROM" with Error _ -> true | Ok _ -> false);
  check "invalid tree surfaces" true
    (match
       D.optimize_tree
         (Ot.join (P.eq_cols 0 "v" 1 "v") (Ot.leaf 1 "B") (Ot.leaf 0 "A"))
     with
    | Error m -> String.length m > 0
    | Ok _ -> false);
  check "filter/algorithm mismatch surfaces" true
    (match
       D.optimize_sql ~mode:D.Cdc ~algo:Core.Optimizer.Goo sample_sql
     with
    | Error _ -> true
    | Ok _ -> false)

let test_custom_catalog () =
  let sql = "SELECT * FROM big JOIN small ON big.k = small.k" in
  let cards i = if i = 0 then 1_000_000.0 else 10.0 in
  match D.optimize_sql ~cards sql with
  | Ok r ->
      Alcotest.(check (float 1e-6)) "catalog respected" 1_000_000.0
        (Hypergraph.Graph.cardinality r.D.graph 0)
  | Error m -> Alcotest.fail m

let test_profile_spans () =
  (* an observed SQL run yields a profile with one span per pipeline
     phase, in start order, whose durations are sane *)
  let ctx = Obs.Span.create () in
  match D.optimize_sql ~obs:ctx sample_sql with
  | Error m -> Alcotest.fail m
  | Ok r -> (
      match r.D.profile with
      | None -> Alcotest.fail "observed run returned no profile"
      | Some p ->
          let names =
            List.map (fun s -> s.Obs.Sink.name) p.Obs.Metrics.spans
          in
          List.iter
            (fun phase ->
              check ("span recorded: " ^ phase) true (List.mem phase names))
            [
              "parse";
              "simplify";
              "conflict-analysis";
              "hypergraph-derive";
              "enumerate:dphyp";
            ];
          check "phases sum within total" true
            (List.for_all
               (fun s -> s.Obs.Sink.dur_s <= p.Obs.Metrics.total_s)
               p.Obs.Metrics.spans);
          check "counters snapshotted" true
            (match p.Obs.Metrics.counters with
            | Some c -> c.Obs.Metrics.pairs_considered > 0
            | None -> false))

let test_profile_unobserved_absent () =
  match D.optimize_sql sample_sql with
  | Ok r -> check "no profile without obs" true (r.D.profile = None)
  | Error m -> Alcotest.fail m

let test_profile_adaptive_ladder () =
  (* a budgeted adaptive run records the failed exact attempt and the
     fallback tiers in the profile *)
  let ctx = Obs.Span.create () in
  match
    D.optimize_graph ~obs:ctx ~algo:Core.Optimizer.Adaptive ~budget:2_000
      (Workloads.Shapes.clique 12)
  with
  | Error m -> Alcotest.fail m
  | Ok r -> (
      match r.D.profile with
      | None -> Alcotest.fail "observed run returned no profile"
      | Some p ->
          check "ladder descended" true
            (List.length p.Obs.Metrics.tiers >= 2);
          check "exact tier lost" true
            (p.Obs.Metrics.winning_tier <> Some "exact"
            && p.Obs.Metrics.winning_tier <> None);
          check "per-tier spans present" true
            (List.exists
               (fun s ->
                 String.length s.Obs.Sink.name >= 5
                 && String.sub s.Obs.Sink.name 0 5 = "tier:")
               p.Obs.Metrics.spans);
          check "plan-emit span present" true
            (List.exists
               (fun s -> s.Obs.Sink.name = "plan-emit")
               p.Obs.Metrics.spans))

let count_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  go 0 0

let test_profile_json_keys () =
  (* the obs_profile/v1 object of a budgeted ladder descent: every
     span carries the required keys, and the counter snapshot, budget
     context, tier ladder and winning tier are all present *)
  let ctx = Obs.Span.create () in
  match
    D.optimize_graph ~obs:ctx ~algo:Core.Optimizer.Adaptive ~budget:2_000
      (Workloads.Shapes.clique 12)
  with
  | Error m -> Alcotest.fail m
  | Ok { D.profile = None; _ } -> Alcotest.fail "no profile"
  | Ok { D.profile = Some p; _ } ->
      let js = Obs.Metrics.to_json ~name:"clique12" p in
      let spans = count_sub js "\"start_ms\"" in
      Alcotest.(check int) "one start_ms per span"
        (List.length p.Obs.Metrics.spans) spans;
      List.iter
        (fun key -> check key true (count_sub js key >= spans))
        [ "\"name\""; "\"depth\""; "\"ms\""; "\"minor_words\"";
          "\"major_words\""; "\"attrs\"" ];
      List.iter
        (fun key -> check key true (count_sub js key > 0))
        [ "\"pairs_considered\""; "\"budget_remaining\"";
          "\"winning_tier\""; "\"tier\": \"" ]

(* ------------------------------------------------------------------ *)
(* serving telemetry                                                   *)

let hist_count tel name labels =
  Obs.Histogram.count
    (Obs.Histogram.snapshot (Obs.Export.histogram tel ~labels name))

let test_tel_series () =
  (* what one request of each kind leaves in the registry: the tier,
     merge, phase and latency series and one recorder entry apiece *)
  let tel = Obs.Export.create () in
  let ok = function Ok _ -> () | Error m -> Alcotest.fail m in
  ok (D.optimize_graph ~tel ~algo:Core.Optimizer.Adaptive
        (Workloads.Shapes.chain 6));
  ok (D.optimize_graph ~tel ~jobs:2 (Workloads.Shapes.cycle 8));
  ok (D.optimize_sql ~tel sample_sql);
  Alcotest.(check int) "adaptive exact-tier sample" 1
    (hist_count tel "joinopt_tier_latency_seconds" [ ("tier", "exact") ]);
  check "parallel merge series" true
    (List.exists
       (fun d ->
         hist_count tel "joinopt_parallel_merge_seconds"
           [ ("domain", string_of_int d) ]
         > 0)
       [ 0; 1 ]);
  List.iter
    (fun (phase, n) ->
      Alcotest.(check int) ("phase " ^ phase) n
        (hist_count tel "joinopt_phase_latency_seconds" [ ("phase", phase) ]))
    [
      ("enumerate", 3);
      ("plan-emit", 2);
      ("simplify", 1);
      ("conflict-analysis", 1);
      ("hypergraph-derive", 1);
      ("parse", 0);
    ];
  Alcotest.(check int) "adaptive latency sample" 1
    (hist_count tel "joinopt_optimize_latency_seconds"
       [ ("algo", "adaptive"); ("cache", "none"); ("result", "ok") ]);
  Alcotest.(check int) "one recorder entry per request" 3
    (Obs.Recorder.recorded (Obs.Export.recorder tel))

let test_tel_minor_words () =
  (* the recorder charges a request the words it allocated itself,
     even when no minor collection happens in between *)
  let tel = Obs.Export.create () in
  Gc.minor ();
  (match D.optimize_graph ~tel (Workloads.Shapes.chain 3) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  match Obs.Recorder.to_list (Obs.Export.recorder tel) with
  | [ q ] -> check "minor words recorded" true (q.Obs.Recorder.minor_words > 0.0)
  | _ -> Alcotest.fail "expected one recorder entry"

let test_tel_hit_pairs () =
  (* a cache hit enumerates nothing: its recorder entry says so, while
     the result still carries the cached counters byte for byte *)
  let tel = Obs.Export.create () and cache = D.make_cache ~capacity:4 () in
  let g = Workloads.Shapes.cycle 6 in
  let run () =
    match D.optimize_graph ~tel ~cache g with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let miss = run () in
  let hit = run () in
  check "counters identical" true
    (Marshal.to_string miss.D.counters [] = Marshal.to_string hit.D.counters []);
  match Obs.Recorder.to_list (Obs.Export.recorder tel) with
  | [ m; h ] ->
      Alcotest.(check (option string)) "miss" (Some "miss") m.Obs.Recorder.cache;
      Alcotest.(check (option string)) "hit" (Some "hit") h.Obs.Recorder.cache;
      check "miss charged its pairs" true (m.Obs.Recorder.pairs > 0);
      Alcotest.(check int) "hit charged nothing" 0 h.Obs.Recorder.pairs
  | _ -> Alcotest.fail "expected two recorder entries"

let test_tel_served_exports () =
  (* a Zipf stream served by the adaptive optimizer through a plan
     cache, as `joinopt stats` serves it: the Prometheus exposition and
     the obs_telemetry/v1 snapshot carry the latency, tier and cache
     series, and neither ever renders a NaN *)
  let w = Workloads.Replay.star ~satellites:7 ~variants:3 ~length:60 () in
  let tel = Obs.Export.create () and cache = D.make_cache ~capacity:16 () in
  Array.iteri
    (fun i _ ->
      match
        D.optimize_graph ~tel ~cache ~algo:Core.Optimizer.Adaptive
          (Workloads.Replay.graph w i)
      with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    w.Workloads.Replay.requests;
  D.export_cache_stats tel cache;
  let has doc sub = check sub true (count_sub doc sub > 0) in
  let prom = Obs.Export.prometheus tel in
  List.iter (has prom)
    [
      "# HELP joinopt_optimize_latency_seconds ";
      "# TYPE joinopt_optimize_latency_seconds histogram";
      "le=\"+Inf\"";
      "joinopt_optimize_latency_seconds_count";
      "joinopt_tier_latency_seconds_bucket{tier=\"";
      "joinopt_plan_cache_requests_total{outcome=\"hit\"}";
      "joinopt_plan_cache_entries{shard=\"";
    ];
  let js = Obs.Export.to_json tel in
  List.iter (has js)
    [
      "\"schema\": \"obs_telemetry/v1\"";
      "\"p50_ms\""; "\"p99_ms\""; "\"p999_ms\"";
      "\"outcome\": \"hit\""; "\"slow_requests\""; "\"fingerprint\"";
    ];
  has
    (Format.asprintf "%a" Cache.Plan_cache.pp_stats
       (Cache.Plan_cache.stats cache))
    "hits=";
  List.iter
    (fun doc ->
      check "no NaN" false
        (List.mem "nan"
           (String.split_on_char ' '
              (String.map
                 (function 'A' .. 'Z' as c -> Char.lowercase_ascii c
                         | 'a' .. 'z' as c -> c | _ -> ' ')
                 doc))))
    [ prom; js ]

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE                                                     *)

module A = Driver.Analyze

let analyze_sql = "SELECT * FROM a, b, c WHERE a.x = b.x AND b.y = c.y"

let analyze_ok ?obs ?algo ?budget sql =
  match A.analyze_sql ?obs ?algo ?budget ~rows:6 ~seed:7 sql with
  | Ok rep -> rep
  | Error m -> Alcotest.fail m

let test_analyze_report () =
  let rep = analyze_ok analyze_sql in
  (* 3 scans + 2 joins, root first *)
  Alcotest.(check int) "five operators" 5 (List.length rep.A.rows);
  let root = List.hd rep.A.rows in
  check "root is a join" true root.A.is_join;
  check "root covers all tables" true
    (Nodeset.Node_set.equal root.A.tables rep.A.plan.Plans.Plan.set);
  check "root depth 0" true (root.A.depth = 0);
  List.iter
    (fun (r : A.op_row) ->
      check "actual rows nonnegative" true (r.A.actual_rows >= 0);
      check "estimates positive" true (r.A.est_card > 0.0);
      match r.A.q_error with
      | Some q -> check "q-error >= 1" true (q >= 1.0)
      | None -> check "no q-error only for empty output" true (r.A.actual_rows = 0))
    rep.A.rows;
  check "verified" true (rep.A.mismatch = None);
  check "root rows = result rows" true
    ((List.hd rep.A.rows).A.actual_rows = rep.A.result_rows);
  check "max q-error present" true (rep.A.max_q <> None);
  check "measured C_out positive" true (rep.A.measured_cout > 0.0);
  check "original order no better" true
    (rep.A.original_cout >= rep.A.measured_cout -. 1e-9)

let test_analyze_exact_delta_one () =
  (* an exact algorithm IS the exact reference: delta must be 1 *)
  let rep = analyze_ok ~algo:Core.Optimizer.Dphyp analyze_sql in
  check "source is dphyp" true (rep.A.source = "dphyp");
  check "exact C_out is own C_out" true
    (rep.A.exact_cout = Some rep.A.measured_cout);
  check "delta 1.0" true (rep.A.quality_delta = Some 1.0)

let test_analyze_per_node_consistency () =
  (* the report's per-operator actuals and C_out must agree with an
     independent Exec.eval_stats run of its plan on the same instance *)
  let rep = analyze_ok analyze_sql in
  let bound =
    match Sqlfront.Binder.parse_and_bind analyze_sql with
    | Ok b -> b
    | Error m -> Alcotest.fail m
  in
  let tree, g0 =
    match D.prepare bound.Sqlfront.Binder.tree with
    | Ok tg -> tg
    | Error m -> Alcotest.fail m
  in
  let inst = Executor.Instance.for_tree ~rows:6 ~domain:4 ~seed:7 tree in
  let g = Executor.Estimate.calibrate ~seed:7 inst g0 in
  let _, stats =
    Executor.Exec.eval_stats inst (Plans.Plan.to_optree g rep.A.plan)
  in
  List.iter
    (fun (r : A.op_row) ->
      match
        List.find_opt
          (fun (s : Executor.Exec.op_stat) ->
            Nodeset.Node_set.equal s.Executor.Exec.tables r.A.tables)
          stats
      with
      | Some s ->
          Alcotest.(check int) "operator rows" s.Executor.Exec.rows_out
            r.A.actual_rows
      | None -> Alcotest.fail "operator missing from eval_stats")
    rep.A.rows;
  Alcotest.(check (float 1e-9)) "measured C_out = eval_stats C_out"
    (Executor.Stats.cout stats) rep.A.measured_cout

let test_analyze_profile_quality () =
  let ctx = Obs.Span.create () in
  let rep = analyze_ok ~obs:ctx analyze_sql in
  match rep.A.profile with
  | None -> Alcotest.fail "observed analyze returned no profile"
  | Some p -> (
      match p.Obs.Metrics.quality with
      | None -> Alcotest.fail "profile carries no quality record"
      | Some q ->
          Alcotest.(check (float 1e-9)) "profile quality = report"
            rep.A.measured_cout q.Obs.Metrics.measured_cout;
          check "execute span recorded" true
            (List.exists
               (fun s -> s.Obs.Sink.name = "execute")
               p.Obs.Metrics.spans);
          check "verify span recorded" true
            (List.exists
               (fun s -> s.Obs.Sink.name = "verify")
               p.Obs.Metrics.spans))

let test_analyze_json_schema () =
  let rep = analyze_ok analyze_sql in
  let js = A.to_json ~query:analyze_sql rep in
  let contains sub =
    let n = String.length js and l = String.length sub in
    let rec go i = i + l <= n && (String.sub js i l = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> check key true (contains key))
    [
      "\"schema\": \"obs_analyze/v1\"";
      "\"operators\"";
      "\"est_card\"";
      "\"actual_rows\"";
      "\"q_error\"";
      "\"summary\"";
      "\"max_q_error\"";
      "\"measured_cout\"";
      "\"verified\": true";
    ]

let test_analyze_errors () =
  (match A.analyze_sql "SELECT * FROM" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse error expected");
  match
    A.analyze_sql ~algo:Core.Optimizer.Dphyp ~budget:1 ~rows:4
      "SELECT * FROM a, b, c, d, e WHERE a.x = b.x AND b.x = c.x AND c.x = \
       d.x AND d.x = e.x"
  with
  | Error m -> check "budget error surfaced" true (m = D.budget_error)
  | Ok _ -> Alcotest.fail "budget exhaustion expected"

let () =
  Alcotest.run "driver"
    [
      ( "pipeline",
        [
          Alcotest.test_case "sql, all conflict modes" `Quick
            test_optimize_sql_all_modes;
          Alcotest.test_case "modes agree on inner joins" `Quick
            test_modes_agree_on_inner;
          Alcotest.test_case "tree entry point" `Quick test_optimize_tree;
          Alcotest.test_case "graph entry point" `Quick test_optimize_graph;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "custom catalog" `Quick test_custom_catalog;
        ] );
      ( "profile",
        [
          Alcotest.test_case "pipeline phase spans" `Quick test_profile_spans;
          Alcotest.test_case "absent when unobserved" `Quick
            test_profile_unobserved_absent;
          Alcotest.test_case "adaptive tier ladder" `Quick
            test_profile_adaptive_ladder;
          Alcotest.test_case "obs_profile/v1 span keys" `Quick
            test_profile_json_keys;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "report shape" `Quick test_analyze_report;
          Alcotest.test_case "exact plan has delta 1" `Quick
            test_analyze_exact_delta_one;
          Alcotest.test_case "C_out = sum of join actuals" `Quick
            test_analyze_per_node_consistency;
          Alcotest.test_case "profile carries quality" `Quick
            test_analyze_profile_quality;
          Alcotest.test_case "obs_analyze/v1 shape" `Quick
            test_analyze_json_schema;
          Alcotest.test_case "errors" `Quick test_analyze_errors;
        ] );
      ( "serving",
        [
          Alcotest.test_case "telemetry series" `Quick test_tel_series;
          Alcotest.test_case "recorder minor words" `Quick
            test_tel_minor_words;
          Alcotest.test_case "cache hits charge no pairs" `Quick
            test_tel_hit_pairs;
          Alcotest.test_case "served stream exports" `Quick
            test_tel_served_exports;
        ] );
    ]
