(* joinopt — command-line driver for the DPhyp join-ordering library.

   Subcommands:
     optimize   parse a SQL query, run conflict analysis + an optimizer
     explain    optimize a SQL query and print the per-phase profile
     shape      generate a benchmark graph and optimize it
     analyze    EXPLAIN ANALYZE: per-operator est/actual rows + Q-error
     cache-stats  replay a Zipf-skewed stream through a plan cache
     stats      replay with always-on telemetry; table / Prometheus / JSON
     ccp        csg-cmp-pair counts (DPhyp vs. brute force)
     dot        Graphviz export of a query or shape hypergraph
     inspect    search-space provenance: memo dump / JSON / lattice
     why        cost a forced join order against the recorded memo
     trace      csg-cmp-pair emission trace (the paper's Figure 3);
                execution span tracing is --trace-out, not this  *)

module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared argument converters                                          *)

let algo_conv =
  let parse s =
    match Core.Optimizer.of_name s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Core.Optimizer.name a))

let algo_arg =
  let doc =
    "Algorithm: dphyp, dpsize, dpsub, dpccp, goo, topdown, tdpart, idp, \
     adaptive or dpconv (subset-convolution DP — dense simple inner-join \
     graphs up to 18 relations; see --dpconv-objective)."
  in
  Arg.(value & opt algo_conv Core.Optimizer.Dphyp & info [ "a"; "algo" ] ~doc)

let dpconv_objective_arg =
  let objective_conv =
    let parse s =
      match Core.Dpconv.objective_of_name s with
      | Some o -> Ok o
      | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "unknown dpconv objective %S (expected cmax or cout-bound)"
                  s))
    in
    Arg.conv
      (parse, fun ppf o -> Format.pp_print_string ppf (Core.Dpconv.objective_name o))
  in
  let doc =
    "Objective for --algo dpconv: cmax (exact bottleneck optimum — smallest \
     achievable largest intermediate — in O(2^n) subset convolutions) or \
     cout-bound (certified upper bound on the C_out optimum, with the \
     witness plan)."
  in
  Arg.(value & opt objective_conv Core.Dpconv.Cmax
       & info [ "dpconv-objective" ] ~doc)

let budget_arg =
  let doc =
    "Work budget in considered pairs.  With --algo adaptive the optimizer \
     degrades from exact DPhyp through IDP-k to greedy GOO; any other \
     algorithm fails once the budget is spent."
  in
  Arg.(value & opt (some int) None & info [ "b"; "budget" ] ~doc)

let k_arg =
  let doc = "IDP block size (relations optimized exactly per round)." in
  Arg.(value & opt int Core.Idp.default_k & info [ "k" ] ~doc)

let model_arg =
  let model_conv =
    let parse s =
      match Costing.Cost_model.by_name s with
      | Some m -> Ok m
      | None -> Error (`Msg (Printf.sprintf "unknown cost model %S" s))
    in
    Arg.conv (parse, fun ppf (m : Costing.Cost_model.t) -> Format.pp_print_string ppf m.name)
  in
  let doc = "Cost model: cout or cmm." in
  Arg.(value & opt model_conv Costing.Cost_model.c_out & info [ "m"; "model" ] ~doc)

let conservative_arg =
  let doc = "Use the conservative conflict-detection gate (see DESIGN.md)." in
  Arg.(value & flag & info [ "conservative" ] ~doc)

let jobs_arg =
  let doc =
    "Enumeration domains.  With $(docv) > 1 the DPhyp enumeration runs on a \
     pool of that many domains (layer-synchronous, sharded DP table; dphyp \
     only — other algorithms refuse); the chosen plan is byte-identical to \
     --jobs 1 for every value."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let profile_arg =
  let doc =
    "Print a per-phase observability table after the run: wall-clock ms, \
     minor-heap words, and the enumeration counters each phase recorded."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let trace_out_arg =
  let doc =
    "Write the execution span trace of this run to $(docv) as Chrome \
     trace-event JSON (open in Perfetto or chrome://tracing).  Not to be \
     confused with the $(b,trace) subcommand, which prints DPhyp's \
     csg-cmp-pair emission order (the paper's Figure 3)."
  in
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE" ~doc)

let fail msg =
  Format.eprintf "error: %s@." msg;
  1

let exit_code = function Ok code -> code | Error msg -> fail msg

let ( let* ) = Result.bind

(* One collector per observed run; [obs_ctx] decides whether the run
   is observed at all, [write_trace] writes its span trace file and
   [report_obs] adds the per-phase table of the request's profile. *)
let obs_ctx profile trace_out =
  if profile || trace_out <> None then Some (Obs.Span.create ()) else None

let write_trace ctx = function
  | Some path ->
      Obs.Sink.write_chrome path (Obs.Span.spans ctx);
      Format.printf "span trace written to %s (open in Perfetto)@." path
  | None -> ()

let report_obs obs profile trace_out (r : Driver.Pipeline.result) =
  Option.iter (fun ctx -> write_trace ctx trace_out) obs;
  match r.profile with
  | Some p when profile -> Format.printf "@.%a" Obs.Metrics.pp_table p
  | _ -> ()

let shape_arg =
  let doc =
    "Graph shape: chain, cycle, star, clique, grid, snowflake, cycle-hyper, \
     star-hyper."
  in
  Arg.(value & opt string "cycle" & info [ "s"; "shape" ] ~doc)

let n_arg =
  let doc = "Number of relations (star: satellites)." in
  Arg.(value & opt int 8 & info [ "n" ] ~doc)

let splits_arg =
  let doc = "Hyperedge split level for cycle-hyper / star-hyper." in
  Arg.(value & opt int 0 & info [ "splits" ] ~doc)

let graph_of_shape shape n splits =
  match shape with
  | "chain" -> Ok (Workloads.Shapes.chain n)
  | "cycle" -> Ok (Workloads.Shapes.cycle n)
  | "star" -> Ok (Workloads.Shapes.star n)
  | "clique" -> Ok (Workloads.Shapes.clique n)
  | "grid" -> Ok (Workloads.Shapes.grid ~rows:2 ~cols:((n + 1) / 2) ())
  | "snowflake" -> (
      match Workloads.Shapes.snowflake_n n with
      | g -> Ok g
      | exception Invalid_argument msg -> Error msg)
  | "cycle-hyper" | "star-hyper" -> (
      let fam =
        if shape = "cycle-hyper" then Workloads.Splits.cycle_based n
        else Workloads.Splits.star_based n
      in
      match List.nth_opt fam splits with
      | Some g -> Ok g
      | None ->
          Error
            (Printf.sprintf "split level %d out of range (max %d)" splits
               (Workloads.Splits.num_splits fam)))
  | s -> Error (Printf.sprintf "unknown shape %S" s)

let report_result ?(stable = false) (r : Driver.Pipeline.result) elapsed =
  let p = r.plan and g = r.graph in
  Format.printf "plan: %a@.cost: %.4g   est. cardinality: %.4g@."
    Plans.Plan.pp p p.cost p.card;
  Format.printf "@[<v>%a@]" (Plans.Plan.pp_verbose g) p;
  (match Plans.Plan_check.check g p with
  | [] -> Format.printf "plan check: ok@."
  | issues ->
      Format.printf "plan check: %d issue(s)@." (List.length issues);
      List.iter
        (fun i -> Format.printf "  %s@." (Plans.Plan_check.issue_to_string i))
        issues);
  (match r.tier with
  | Some t -> Format.printf "tier: %s@." (Core.Adaptive.tier_name t)
  | None -> ());
  Format.printf "counters: %a@." Core.Counters.pp r.counters;
  if stable then Format.printf "dp entries: %d@." r.dp_entries
  else
    Format.printf "dp entries: %d   time: %.3f ms@." r.dp_entries
      (elapsed *. 1000.0)

(* One request through Driver.Pipeline, with the wall clock of the
   whole request. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  Result.map (fun r -> (r, Unix.gettimeofday () -. t0)) (f ())

(* Optimize a graph and print the result, the profile table and the
   span trace — what shape, graph and tpch report. *)
let optimize_and_report ?stable ~profile ~trace_out ~algo ~model ?budget ~k
    ?dpconv_objective ~jobs g =
  let obs = obs_ctx profile trace_out in
  exit_code
    (let* r, elapsed =
       timed (fun () ->
           Driver.Pipeline.optimize_graph ?obs ~algo ~model ?budget ~k
             ?dpconv_objective ~jobs g)
     in
     report_result ?stable r elapsed;
     report_obs obs profile trace_out r;
     Ok 0)

(* ------------------------------------------------------------------ *)
(* optimize: SQL pipeline                                              *)

let sql_arg =
  let doc = "SQL query text (or @file to read from a file)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)

let read_sql s =
  if String.length s > 0 && s.[0] = '@' then begin
    let path = String.sub s 1 (String.length s - 1) in
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  end
  else s

let optimize_cmd =
  let run sql algo model budget k dpconv_objective jobs conservative verbose
      dot_plan profile trace_out =
    let obs = obs_ctx profile trace_out in
    let mode =
      if conservative then Driver.Pipeline.Tes_conservative
      else Driver.Pipeline.Tes_literal
    in
    exit_code
      (let* r, elapsed =
         timed (fun () ->
             Driver.Pipeline.optimize_sql ?obs ~mode ~algo ~model ?budget ~k
               ~dpconv_objective ~jobs (read_sql sql))
       in
       Format.printf "initial operator tree:@.%a@." Relalg.Optree.pp r.tree;
       if verbose then
         Format.printf "%a@.%a@." Conflicts.Analysis.pp
           (Conflicts.Analysis.analyze ~conservative r.tree)
           G.pp r.graph;
       report_result r elapsed;
       report_obs obs profile trace_out r;
       Option.iter
         (fun path ->
           Plans.Plan_dot.write_file path r.graph r.plan;
           Format.printf "plan graph written to %s@." path)
         dot_plan;
       Ok 0)
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print analysis and graph.")
  in
  let dot_plan =
    Arg.(value & opt (some string) None
         & info [ "dot-plan" ] ~doc:"Write the chosen plan as Graphviz to $(docv).")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimize a SQL query")
    Term.(const run $ sql_arg $ algo_arg $ model_arg $ budget_arg $ k_arg
          $ dpconv_objective_arg $ jobs_arg $ conservative_arg $ verbose
          $ dot_plan $ profile_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* explain: full-pipeline profile of one SQL query                     *)

let explain_cmd =
  let run sql algo model budget k dpconv_objective jobs conservative cache_cap
      trace_out =
    let mode =
      if conservative then Driver.Pipeline.Tes_conservative
      else Driver.Pipeline.Tes_literal
    in
    let go ?cache ctx =
      Driver.Pipeline.optimize_sql ~obs:ctx ?cache ~mode ~algo ~model ?budget
        ~k ~dpconv_objective ~jobs (read_sql sql)
    in
    let report ctx (r : Driver.Pipeline.result) =
      Format.printf "plan: %a@.cost: %.4g   est. cardinality: %.4g@.@."
        Plans.Plan.pp r.plan r.plan.cost r.plan.card;
      Option.iter (Format.printf "%a" Obs.Metrics.pp_table) r.profile;
      write_trace ctx trace_out;
      Ok 0
    in
    exit_code
      (match cache_cap with
      | None ->
          let ctx = Obs.Span.create () in
          let* r = go ctx in
          report ctx r
      | Some capacity ->
          (* first run fills the cache (miss), second is the profile the
             user sees — its [cache] span carries the hit and the table
             gains the plan-cache counter line *)
          let cache = Driver.Pipeline.make_cache ~capacity () in
          let* _ = go ~cache (Obs.Span.create ()) in
          let ctx = Obs.Span.create () in
          let* r = go ~cache ctx in
          Format.printf "second run through a plan cache of capacity %d:@."
            capacity;
          report ctx r)
  in
  let cache_cap =
    Arg.(value & opt (some int) None
         & info [ "cache" ] ~docv:"N"
             ~doc:"Run the query twice through a plan cache of capacity \
                   $(docv) and print the second (warm) run's profile: the \
                   $(b,cache) phase span replaces the enumeration time and \
                   the profile gains the hit/miss/eviction counter line.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Optimize a SQL query and print the per-phase profile: one row per \
          pipeline phase (parse, simplify, conflict analysis, hypergraph \
          derivation, enumeration with its tier/round sub-spans) with \
          wall-clock ms, minor-heap allocation and enumeration counters.")
    Term.(const run $ sql_arg $ algo_arg $ model_arg $ budget_arg $ k_arg
          $ dpconv_objective_arg $ jobs_arg $ conservative_arg $ cache_cap
          $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* replayed serving: cache-stats and stats                             *)

type replay = {
  shape : string;
  n : int;
  variants : int;
  requests : int;
  alpha : float;
  capacity : int;
  jobs : int;
  seed : int;
}

let replay_term =
  let variants =
    Arg.(value & opt int 8
         & info [ "variants" ]
             ~doc:"Distinct query templates in the replay universe (same \
                   shape, different catalog seeds).")
  in
  let requests =
    Arg.(value & opt int 200
         & info [ "requests" ] ~doc:"Length of the replay request stream.")
  in
  let alpha =
    Arg.(value & opt float 1.0
         & info [ "alpha" ]
             ~doc:"Zipf skew exponent of template popularity (0 = uniform).")
  in
  let capacity =
    Arg.(value & opt int 64 & info [ "capacity" ] ~doc:"Plan-cache capacity.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Stream and catalog seed.")
  in
  Term.(
    const (fun shape n variants requests alpha capacity jobs seed ->
        { shape; n; variants; requests; alpha; capacity; jobs; seed })
    $ shape_arg $ n_arg $ variants $ requests $ alpha $ capacity $ jobs_arg
    $ seed)

(* Serve a Zipf-skewed replay of [rp.variants] same-shape templates
   through one plan cache on a pool of [rp.jobs] domains.  Returns the
   stream, the cache and the wall clock of serving it. *)
let serve_replay ?tel ?algo ?budget rp =
  let gen i =
    let p = { Workloads.Shapes.default_params with seed = rp.seed + i } in
    match rp.shape with
    | "chain" -> Workloads.Shapes.chain ~p rp.n
    | "cycle" -> Workloads.Shapes.cycle ~p rp.n
    | "star" -> Workloads.Shapes.star ~p rp.n
    | "clique" -> Workloads.Shapes.clique ~p rp.n
    | s ->
        invalid_arg
          (Printf.sprintf "unknown shape %S (chain, cycle, star or clique)" s)
  in
  match
    Workloads.Replay.of_generator ~seed:rp.seed ~alpha:rp.alpha
      ~variants:rp.variants ~length:rp.requests gen
  with
  | exception Invalid_argument msg -> Error msg
  | w -> (
      let cache = Driver.Pipeline.make_cache ~capacity:rp.capacity () in
      let failed = Atomic.make None in
      let t0 = Unix.gettimeofday () in
      Parallel.Pool.with_pool ~jobs:rp.jobs (fun pool ->
          Parallel.Pool.run_fun pool rp.requests (fun i _wid ->
              match
                Driver.Pipeline.optimize_graph ?tel ~cache ?algo ?budget
                  (Workloads.Replay.graph w i)
              with
              | Ok _ -> ()
              | Error m -> Atomic.set failed (Some m)));
      let dt = Unix.gettimeofday () -. t0 in
      match Atomic.get failed with
      | Some m -> Error ("a replayed request failed: " ^ m)
      | None -> Ok (w, cache, dt))

let plural_domains jobs = if jobs = 1 then "" else "s"

let cache_stats_cmd =
  let run rp =
    exit_code
      (let* w, cache, dt = serve_replay rp in
       Format.printf
         "replayed %d requests over %d %s-%d variants (zipf %.2f, %d \
          touched) on %d domain%s@."
         rp.requests rp.variants rp.shape rp.n rp.alpha
         (Workloads.Replay.distinct_requested w)
         rp.jobs (plural_domains rp.jobs);
       Format.printf "cache: %a@." Cache.Plan_cache.pp_stats
         (Cache.Plan_cache.stats cache);
       Format.printf "throughput: %.0f plans/sec  (%.3f ms/request)@."
         (float_of_int rp.requests /. dt)
         (dt *. 1e3 /. float_of_int rp.requests);
       Ok 0)
  in
  Cmd.v
    (Cmd.info "cache-stats"
       ~doc:
         "Replay a Zipf-skewed synthetic query stream through a concurrent \
          plan cache on a domain pool and print the hit/miss/coalesced/\
          eviction counters and the served throughput — the \
          optimizer-as-a-service serving loop in one command.")
    Term.(const run $ replay_term)

let stats_cmd =
  let run rp algo budget prometheus json out top slow_ms =
    let tel = Obs.Export.create ~slow_s:(slow_ms /. 1e3) () in
    exit_code
      (let* _, cache, _ = serve_replay ~tel ~algo ?budget rp in
       Driver.Pipeline.export_cache_stats tel cache;
       let doc =
         if prometheus then Some (Obs.Export.prometheus tel)
         else if json then Some (Obs.Export.to_json ~top tel)
         else None
       in
       (match (doc, out) with
       | Some doc, None -> print_string doc
       | Some doc, Some path ->
           (* atomic: a scraper polling the file never sees a
              truncated document *)
           Obs.Atomic_file.write path doc;
           Format.printf "telemetry written to %s@." path
       | None, _ ->
           Format.printf
             "replayed %d requests over %d %s-%d variants (zipf %.2f, algo \
              %s) on %d domain%s@.@."
             rp.requests rp.variants rp.shape rp.n rp.alpha
             (Core.Optimizer.name algo)
             rp.jobs (plural_domains rp.jobs);
           Obs.Export.print_stats ~top Format.std_formatter tel);
       Ok 0)
  in
  (* Default adaptive, so the per-tier latency series are populated. *)
  let algo =
    let doc =
      "Algorithm for the replayed requests (default adaptive, so the \
       per-tier latency histograms are populated)."
    in
    Arg.(value & opt algo_conv Core.Optimizer.Adaptive
         & info [ "a"; "algo" ] ~doc)
  in
  let prometheus =
    Arg.(value & flag
         & info [ "prometheus" ]
             ~doc:"Emit Prometheus text exposition format instead of the \
                   human table (what a scrape endpoint would serve).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the obs_telemetry/v1 JSON snapshot instead of the \
                   human table.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the --prometheus / --json document to $(docv) \
                   instead of stdout.")
  in
  let top =
    Arg.(value & opt int 5
         & info [ "top" ] ~doc:"Slowest requests to list from the flight \
                                recorder.")
  in
  let slow_ms =
    Arg.(value & opt float 100.0
         & info [ "slow-ms" ]
             ~doc:"Flight-recorder slow threshold in milliseconds: requests \
                   at least this slow keep their full span tree.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Serve a Zipf-skewed replay stream through the optimizer with \
          always-on serving telemetry — latency histograms per algorithm, \
          phase and adaptive tier, plan-cache counters and per-shard \
          occupancy, and a flight recorder of the slowest requests — then \
          print the summary table, or export it with $(b,--prometheus) / \
          $(b,--json).")
    Term.(const run $ replay_term $ algo $ budget_arg $ prometheus $ json
          $ out $ top $ slow_ms)

(* ------------------------------------------------------------------ *)
(* shape: benchmark graphs                                             *)

let shape_cmd =
  let run shape n splits algo model budget k dpconv_objective jobs stable
      profile trace_out =
    match graph_of_shape shape n splits with
    | Error msg -> fail msg
    | Ok g ->
        Format.printf "%a@." G.pp g;
        optimize_and_report ~stable ~profile ~trace_out ~algo ~model ?budget ~k
          ~dpconv_objective ~jobs g
  in
  let stable =
    Arg.(value & flag
         & info [ "stable" ]
             ~doc:"Suppress the wall-clock column so output is byte-stable \
                   across runs (golden tests; e.g. to diff --jobs N against \
                   --jobs 1).")
  in
  Cmd.v
    (Cmd.info "shape" ~doc:"Generate a benchmark graph and optimize it")
    Term.(const run $ shape_arg $ n_arg $ splits_arg $ algo_arg $ model_arg
          $ budget_arg $ k_arg $ dpconv_objective_arg $ jobs_arg $ stable
          $ profile_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* graph: save / load / optimize serialized hypergraphs                *)

let graph_cmd =
  let run input algo model budget k jobs save profile trace_out =
    let g_result =
      if String.length input > 0 && input.[0] = '@' then
        Hypergraph.Serialize.read_file
          (String.sub input 1 (String.length input - 1))
      else
        match graph_of_shape input 8 0 with
        | Ok g -> Ok g
        | Error _ -> Hypergraph.Serialize.of_string input
    in
    match g_result with
    | Error msg -> fail msg
    | Ok g ->
        Option.iter
          (fun path ->
            Hypergraph.Serialize.write_file path g;
            Format.printf "wrote %s@." path)
          save;
        Format.printf "%a@." G.pp g;
        optimize_and_report ~profile ~trace_out ~algo ~model ?budget ~k ~jobs g
  in
  let input =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"GRAPH"
             ~doc:"@file with a serialized hypergraph, a shape name, or \
                   inline serialized text.")
  in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~doc:"Also write the graph to $(docv).")
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Optimize a serialized hypergraph (see \
                            Hypergraph.Serialize for the format)")
    Term.(const run $ input $ algo_arg $ model_arg $ budget_arg $ k_arg
          $ jobs_arg $ save $ profile_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* ccp: counts                                                         *)

let ccp_cmd =
  let run shape n splits brute =
    match graph_of_shape shape n splits with
    | Error msg -> fail msg
    | Ok g ->
        let trace = Core.Dphyp.enumerate_ccps g in
        Format.printf "DPhyp emits %d csg-cmp-pairs@." (List.length trace);
        if brute then begin
          let csg = Hypergraph.Csg_enum.count_connected_subgraphs g in
          let ccp = Hypergraph.Csg_enum.count_csg_cmp_pairs g in
          let trees = Hypergraph.Csg_enum.count_join_trees g in
          Format.printf
            "brute force: %d connected subgraphs, %d csg-cmp-pairs, %d \
             ordered join trees@."
            csg ccp trees
        end;
        0
  in
  let brute =
    Arg.(value & flag
         & info [ "brute" ] ~doc:"Also run the exponential brute-force count.")
  in
  Cmd.v
    (Cmd.info "ccp" ~doc:"Count csg-cmp-pairs")
    Term.(const run $ shape_arg $ n_arg $ splits_arg $ brute)

(* ------------------------------------------------------------------ *)
(* dot: Graphviz export                                                *)

let dot_cmd =
  let run shape n splits out =
    match graph_of_shape shape n splits with
    | Error msg -> fail msg
    | Ok g ->
        (match out with
        | Some path ->
            Hypergraph.Dot.write_file path g;
            Format.printf "wrote %s@." path
        | None -> print_string (Hypergraph.Dot.to_dot g));
        0
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Output file (stdout if absent).")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a hypergraph in Graphviz format")
    Term.(const run $ shape_arg $ n_arg $ splits_arg $ out)

(* ------------------------------------------------------------------ *)
(* trace: emission order (Figure 3)                                    *)

let trace_cmd =
  let run shape n splits =
    match graph_of_shape shape n splits with
    | Error msg -> fail msg
    | Ok g ->
        List.iteri
          (fun i (s1, s2) ->
            Format.printf "%3d: (%a, %a)@." (i + 1) Ns.pp s1 Ns.pp s2)
          (Core.Dphyp.enumerate_ccps g);
        0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Print DPhyp's csg-cmp-pair emission trace — the enumeration-order \
          listing of the paper's Figure 3.  This is about $(i,which pairs) \
          the algorithm emits, not about execution timing; for a wall-clock \
          span trace of a run use the $(b,--trace-out) flag of \
          $(b,optimize) / $(b,explain) / $(b,shape) / $(b,graph) instead.")
    Term.(const run $ shape_arg $ n_arg $ splits_arg)

(* ------------------------------------------------------------------ *)
(* run: SQL -> optimize -> execute on a generated instance             *)

let run_cmd =
  let run sql algo model budget k conservative rows seed =
    exit_code
      (let* bound = Sqlfront.Binder.parse_and_bind (read_sql sql) in
       let* tree, g0 = Driver.Pipeline.prepare ~conservative bound.tree in
       let inst = Executor.Instance.for_tree ~rows ~domain:4 ~seed tree in
       let* r =
         Driver.Pipeline.optimize_graph ~algo ~model ?budget ~k
           (Executor.Estimate.calibrate inst g0)
       in
       let plan = r.plan in
       Format.printf "plan: %a  (est. cost %.4g, est. rows %.4g)@."
         Plans.Plan.pp plan plan.Plans.Plan.cost plan.Plans.Plan.card;
       let result = Executor.Exec.eval inst r.tree in
       let universe = Executor.Exec.output_tables tree in
       let expected = Executor.Exec.eval inst tree in
       (match Executor.Bag.diff_summary ~universe expected result with
       | None ->
           Format.printf
             "verified: plan result equals original-order result (%d \
              tuples)@."
             (List.length result)
       | Some m -> Format.printf "MISMATCH: %s@." m);
       Format.printf "@.first tuples:@.";
       List.iteri
         (fun i env -> if i < 10 then Format.printf "  %a@." Executor.Env.pp env)
         result;
       Ok 0)
  in
  let rows =
    Arg.(value & opt int 8
         & info [ "rows" ] ~doc:"Rows per generated base table.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Data generator seed.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Optimize a SQL query and execute it on generated data")
    Term.(const run $ sql_arg $ algo_arg $ model_arg $ budget_arg $ k_arg
          $ conservative_arg $ rows $ seed)

(* ------------------------------------------------------------------ *)
(* analyze: EXPLAIN ANALYZE — per-operator est/actual/Q-error          *)

let analyze_cmd =
  let run sql algo model budget k conservative rows seed sample json_out
      stable profile trace_out =
    let obs = obs_ctx profile trace_out in
    match
      Driver.Analyze.analyze_sql ?obs ~algo ~model ?budget ~k ~conservative
        ~rows ~seed ?sample (read_sql sql)
    with
    | Error msg -> fail msg
    | Ok rep ->
        Format.printf "%a" (Driver.Analyze.pp ~stable) rep;
        Option.iter
          (fun path ->
            Obs.Atomic_file.write path (Driver.Analyze.to_json ~query:sql rep);
            Format.printf "analyze report written to %s@." path)
          json_out;
        Option.iter (fun ctx -> write_trace ctx trace_out) obs;
        (match rep.Driver.Analyze.profile with
        | Some p when profile -> Format.printf "@.%a" Obs.Metrics.pp_table p
        | _ -> ());
        0
  in
  let rows =
    Arg.(value & opt int 8
         & info [ "rows" ] ~doc:"Rows per generated base table.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Data generator seed.")
  in
  let sample =
    Arg.(value & opt (some int) None
         & info [ "sample" ]
             ~doc:"Rows sampled per side when calibrating selectivities.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "analyze-json" ] ~docv:"FILE"
             ~doc:"Also write the report to $(docv) as an obs_analyze/v1 \
                   JSON document.")
  in
  let stable =
    Arg.(value & flag
         & info [ "stable" ]
             ~doc:"Suppress wall-clock columns so output is byte-stable \
                   across runs (golden tests).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "EXPLAIN ANALYZE: optimize a SQL query, execute the chosen plan on \
          a deterministic generated instance, and print one row per \
          operator with estimated rows, actual rows, Q-error, inclusive \
          wall-clock and predicate evaluations — plus aggregate Q-error, \
          the measured C_out of the chosen vs. the exact plan, and a \
          result-correctness check against the original operator order.")
    Term.(const run $ sql_arg $ algo_arg $ model_arg $ budget_arg $ k_arg
          $ conservative_arg $ rows $ seed $ sample $ json_out $ stable
          $ profile_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* inspect: search-space provenance — memo dump / JSON / lattice       *)

let inspect_cmd =
  let run shape n splits algo model budget k json dot out sample max_subsets
      max_champions =
    match graph_of_shape shape n splits with
    | Error msg -> fail msg
    | Ok g -> (
        let prov =
          Inspect.Provenance.create ~sample ~max_subsets ~max_champions ()
        in
        match
          Driver.Pipeline.optimize_graph ~inspect:prov ~algo ~model ?budget ~k
            g
        with
        | Error msg -> fail msg
        | Ok r ->
            let names i = (G.relation g i).G.name in
            let doc =
              if json then
                Some
                  (Inspect.Provenance.to_json ~names
                     ~name:(Printf.sprintf "%s-%d" shape n)
                     prov)
              else if dot then Some (Inspect.Provenance.to_dot ~names prov)
              else None
            in
            (match doc, out with
            | Some doc, None -> print_string doc
            | Some doc, Some path ->
                Obs.Atomic_file.write path doc;
                Format.printf "inspect report written to %s@." path
            | None, _ ->
                let plan = r.Driver.Pipeline.plan in
                Format.printf "plan: %a@.cost: %.4g@." Plans.Plan.pp plan
                  plan.Plans.Plan.cost;
                (match r.Driver.Pipeline.tier with
                | Some t ->
                    Format.printf "tier: %s@." (Core.Adaptive.tier_name t)
                | None -> ());
                Inspect.Provenance.pp_table ~names Format.std_formatter prov;
                (* when a fallback tier won, show what it cost *)
                match r.Driver.Pipeline.tier with
                | Some t when t <> Core.Adaptive.Exact -> (
                    match
                      Core.Partition.loss_report
                        ~labels:(Core.Adaptive.tier_name t, "exact")
                        g plan
                    with
                    | Some rep -> Format.printf "@.loss vs exact:@.%s" rep
                    | None -> ())
                | _ -> ());
            0)
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the obs_inspect/v1 JSON document instead of the \
                   human memo table.")
  in
  let dot =
    Arg.(value & flag
         & info [ "dot" ]
             ~doc:"Emit the explored subset lattice as a Graphviz digraph \
                   (one node per recorded subset, edges from the halves of \
                   each winning decomposition).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the --json / --dot document to $(docv) instead of \
                   stdout (atomic temp-file + rename).")
  in
  let sample =
    Arg.(value & opt int 1
         & info [ "sample" ]
             ~doc:"Keep champion history only for subsets whose hash is 0 \
                   mod $(docv) (1 = record everything; aggregate counts \
                   always cover every update).")
  in
  let max_subsets =
    Arg.(value & opt int 65536
         & info [ "max-subsets" ]
             ~doc:"Bound on subsets with recorded history.")
  in
  let max_champions =
    Arg.(value & opt int 8
         & info [ "max-champions" ]
             ~doc:"Champion-history entries kept per subset (oldest \
                   dropped).")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Optimize a benchmark graph with search-space provenance recording \
          and dump the memo: per subset the winning csg-cmp-pair, its cost, \
          what it displaced and at which arrival rank, plus aggregate \
          pruning statistics — as a human table, obs_inspect/v1 JSON \
          ($(b,--json)) or a Graphviz subset lattice ($(b,--dot)).  With a \
          fallback tier (e.g. $(b,--algo) adaptive $(b,--budget) N) also \
          prints the aligned plan diff against exact DP.")
    Term.(const run $ shape_arg $ n_arg $ splits_arg $ algo_arg $ model_arg
          $ budget_arg $ k_arg $ json $ dot $ out $ sample $ max_subsets
          $ max_champions)

(* ------------------------------------------------------------------ *)
(* why: cost a forced join order against the recorded memo             *)

let why_cmd =
  let run shape n splits model force_order =
    match graph_of_shape shape n splits with
    | Error msg -> fail msg
    | Ok g -> (
        match Inspect.Why.analyze ~model g force_order with
        | Error msg -> fail msg
        | Ok rep ->
            Format.printf "%a" Inspect.Why.pp rep;
            0)
  in
  let force_order =
    Arg.(required & opt (some string) None
         & info [ "force-order" ] ~docv:"ORDER"
             ~doc:"Join order to cost: a parenthesized binary tree over \
                   relation names, e.g. \"((R0 R1) (R2 R3))\"; a flat list \
                   \"R0 R1 R2\" is read left-deep.  Every relation must \
                   appear exactly once.")
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Explain why the optimizer did not pick a given join order: build \
          the forced order under the optimizer's own operator and costing \
          rules, compare every subtree against the exhaustive DPhyp memo, \
          name the first subset where the forced order diverges from the \
          optimum, attribute the cost gap join by join, and print the \
          aligned plan diff.")
    Term.(const run $ shape_arg $ n_arg $ splits_arg $ model_arg $ force_order)

(* ------------------------------------------------------------------ *)
(* tpch: canned realistic join graphs                                  *)

let tpch_cmd =
  let run query algo model budget k sf =
    if query = "all" then begin
      List.iter
        (fun name ->
          let g = Workloads.Tpch.query ~sf name in
          match
            timed (fun () ->
                Driver.Pipeline.optimize_graph ~algo ~model ?budget ~k g)
          with
          | Error msg -> Format.printf "%-4s: %s@." name msg
          | Ok (r, elapsed) ->
              Format.printf "%-4s (%d relations): time=%.3f ms  cost=%.4g  %a@."
                name (G.num_nodes g) (elapsed *. 1000.0) r.plan.cost
                Plans.Plan.pp r.plan)
        Workloads.Tpch.query_names;
      0
    end
    else
      match Workloads.Tpch.query ~sf query with
      | g ->
          Format.printf "%a@." G.pp g;
          optimize_and_report ~profile:false ~trace_out:None ~algo ~model
            ?budget ~k ~jobs:1 g
      | exception Invalid_argument msg -> fail msg
  in
  let query =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"QUERY" ~doc:"q2, q3, q5, q7, q8, q9, q10 or all.")
  in
  let sf =
    Arg.(value & opt float 1.0 & info [ "sf" ] ~doc:"TPC-H scale factor.")
  in
  Cmd.v
    (Cmd.info "tpch" ~doc:"Optimize TPC-H-shaped join graphs")
    Term.(const run $ query $ algo_arg $ model_arg $ budget_arg $ k_arg $ sf)

let main =
  let info =
    Cmd.info "joinopt" ~version:"1.0.0"
      ~doc:"DPhyp join ordering over hypergraphs (SIGMOD 2008 reproduction)"
  in
  Cmd.group info
    [
      optimize_cmd; explain_cmd; analyze_cmd; run_cmd; shape_cmd; graph_cmd;
      cache_stats_cmd; stats_cmd; ccp_cmd; dot_cmd; trace_cmd; inspect_cmd;
      why_cmd; tpch_cmd;
    ]

let () = exit (Cmd.eval' main)
