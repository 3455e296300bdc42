module Ot = Relalg.Optree

type conflict_mode =
  | Tes_literal
  | Tes_conservative
  | Tes_generate_and_test
  | Cdc

type result = {
  tree : Ot.t;
  graph : Hypergraph.Graph.t;
  plan : Plans.Plan.t;
  counters : Core.Counters.t;
  dp_entries : int;
  tier : Core.Adaptive.tier option;
  profile : Obs.Metrics.profile option;
}

type plan_cache = Core.Optimizer.result Cache.Plan_cache.t

let make_cache ?shards ~capacity () = Cache.Plan_cache.create ?shards ~capacity ()

let cache_metrics c : Obs.Metrics.cache_stats =
  let s = Cache.Plan_cache.stats c in
  {
    Obs.Metrics.cache_hits = s.Cache.Plan_cache.hits;
    cache_misses = s.misses;
    cache_coalesced = s.coalesced;
    cache_evictions = s.evictions;
    cache_entries = s.entries;
    cache_capacity = s.capacity;
  }

let budget_error =
  "work budget exhausted before a plan was found (use the adaptive algorithm \
   for graceful degradation)"

(* Top-3 costliest memo subsets of a recorded run, with relation
   names resolved — the pre-rendered shape the profile and the flight
   recorder carry. *)
let prov_summary graph prov =
  let names i = (Hypergraph.Graph.relation graph i).Hypergraph.Graph.name in
  Inspect.Provenance.top_costly_labeled ~names prov 3

(* Intra-query parallelism: [jobs > 1] runs the enumeration itself on
   a domain pool — only DPhyp has a parallel decomposition (see
   Parallel.Par_dphyp); every other algorithm refuses rather than
   silently running sequentially. *)
let run_algo ?obs ?model ?filter ?budget ?k ?dpconv_objective ?inspect ~jobs
    algo graph =
  let go () =
    if jobs <= 1 then
      Core.Optimizer.run ?obs ?model ?filter ?budget ?k ?dpconv_objective algo
        graph
    else if algo <> Core.Optimizer.Dphyp then
      invalid_arg
        (Printf.sprintf "jobs > 1 requires the dphyp algorithm (got %s)"
           (Core.Optimizer.name algo))
    else
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Parallel.Par_dphyp.run ?obs ?model ?filter ?budget ~pool graph)
  in
  match inspect with
  | None -> go ()
  | Some prov ->
      (* The recorder attaches through ambient (domain-wide) state;
         a parallel enumeration would race on it. *)
      if jobs > 1 then
        invalid_arg "provenance recording (--inspect) requires jobs = 1";
      Inspect.Provenance.with_recording prov go

(* The exact cache key: every input that can change the returned plan
   bytes.  The serialized graph carries node order, cardinalities,
   selectivities, operators, free sets and edge order (edge ids are
   file order); algorithm, cost model, budget and IDP block size are
   prepended.  [jobs] is deliberately absent — parallel enumeration
   is byte-identical to sequential for every jobs count, so one entry
   serves all of them (the differential test sweeps jobs to prove
   it). *)
let exact_key ?model ?budget ?k ?(dpconv_objective = Core.Dpconv.Cmax) algo
    graph =
  Printf.sprintf "algo=%s model=%s budget=%s k=%d\n%s"
    (* the objective changes dpconv's plan, so it is part of the
       algorithm component; other algorithms ignore it and keep their
       existing keys *)
    (match algo with
    | Core.Optimizer.Dpconv ->
        Core.Optimizer.name algo ^ ":"
        ^ Core.Dpconv.objective_name dpconv_objective
    | _ -> Core.Optimizer.name algo)
    (match model with
    | Some (m : Costing.Cost_model.t) -> m.name
    | None -> Costing.Cost_model.c_out.name)
    (match budget with Some b -> string_of_int b | None -> "unlimited")
    (Option.value k ~default:Core.Idp.default_k)
    (Hypergraph.Serialize.to_string graph)

(* Memoized enumeration, returning the optimizer result plus the
   plan-cache outcome ([None] when the cache was bypassed).  A
   conflict-mode validity filter is a closure the key cannot capture,
   and a provenance-recorded request must actually enumerate (a hit
   has no decision trail), so both bypass the cache.  On a miss the
   optimizer runs inside the requester's [cache] span (so explain
   shows enumerate nested under cache); a hit or a coalesced wait
   returns the memoized result untouched — the cached plan is the
   exact value a fresh run would build, because the key is exact. *)
let run_cached ?obs ?cache ?model ?filter ?budget ?k ?dpconv_objective
    ?inspect ~jobs algo graph =
  let run () =
    run_algo ?obs ?model ?filter ?budget ?k ?dpconv_objective ?inspect ~jobs
      algo graph
  in
  match cache with
  | Some c when filter = None && inspect = None ->
      Obs.Span.with_opt obs "cache" (fun sp ->
          let key =
            Cache.Plan_cache.key
              ~fingerprint:(Cache.Fingerprint.of_graph graph)
              ~exact:(exact_key ?model ?budget ?k ?dpconv_objective algo graph)
          in
          let r, outcome = Cache.Plan_cache.find_or_compute c key run in
          Obs.Span.set_opt sp "cache"
            (Obs.Span.Str (Cache.Plan_cache.outcome_name outcome));
          (r, Some outcome))
  | _ -> (run (), None)

(* ---------- serving telemetry ---------- *)

let latency_help = "End-to-end optimize latency in seconds"

let phase_help = "Per-pipeline-phase latency in seconds"

let tier_help = "Wall-clock seconds spent in each adaptive tier"

let merge_help =
  "Per-domain seconds spent merging buffered pairs into the sharded DP table"

(* The worker domain [i] of a parallel enumerator's [d<i>_merge_ms]
   span attribute. *)
let merge_domain key =
  if String.starts_with ~prefix:"d" key
     && String.ends_with ~suffix:"_merge_ms" key
  then int_of_string_opt (String.sub key 1 (String.length key - 10))
  else None

(* A request's span collectors, and where its telemetry starts.
   Telemetry needs spans (per-phase and per-tier histograms,
   slow-request span promotion) even when the caller asked for no
   profile: requests with [?tel] but no [?obs] get a private
   collector in [ctx], while the result's [profile] stays keyed off
   the caller's own [obs].  The clock and this domain's allocation
   counters are read only when [?tel] is set: [Gc.minor_words] reads
   the allocation pointer exactly and per domain, where
   [Gc.quick_stat]'s minor count only advances at collections and
   folds in joined domains. *)
type request = {
  obs : Obs.Span.ctx option;
  ctx : Obs.Span.ctx option;
  tel : Obs.Export.t option;
  t0 : float;
  minor0 : float;
  major0 : float;
}

let start ?obs ?tel () =
  let on = tel <> None in
  {
    obs;
    ctx = (if on && obs = None then Some (Obs.Span.create ()) else obs);
    tel;
    t0 = (if on then Obs.Span.now () else 0.);
    minor0 = (if on then Gc.minor_words () else 0.);
    major0 = (if on then (Gc.quick_stat ()).Gc.major_words else 0.);
  }

(* One always-on record per served request, all derived from the
   request's own spans and result: the overall latency histogram
   (labeled by algorithm, plan-cache outcome and ok/error), the
   per-phase histograms of its depth-0 spans, the per-tier histograms
   of its [tier:<name>] spans, the per-domain merge histograms of the
   parallel enumerator's [d<i>_merge_ms] attributes (an enumerate
   span counts as one "enumerate" phase whatever the algorithm, so
   the series stays low-cardinality), and a flight-recorder entry
   (which keeps the whole span tree when the request was slow).  A
   hit or coalesced wait is charged no pairs: the cached counters
   describe the miss that computed them. *)
let tel_record tel req ~algo ~graph ?inspect outcome =
  let wall_s = Obs.Span.now () -. req.t0 in
  let minor_words = Gc.minor_words () -. req.minor0 in
  let major_words = (Gc.quick_stat ()).Gc.major_words -. req.major0 in
  let algo_name = Core.Optimizer.name algo in
  let ok, tier, pairs, cache_outcome =
    match outcome with
    | Ok ((r : Core.Optimizer.result), outc) ->
        ( r.Core.Optimizer.plan <> None,
          Option.map Core.Adaptive.tier_name r.Core.Optimizer.tier,
          (match outc with
          | Some (Cache.Plan_cache.Hit | Cache.Plan_cache.Coalesced) -> 0
          | Some Cache.Plan_cache.Miss | None ->
              r.Core.Optimizer.counters.Core.Counters.pairs_considered),
          Option.map Cache.Plan_cache.outcome_name outc )
    | Error _ -> (false, None, 0, None)
  in
  Obs.Export.observe_s tel ~help:latency_help
    ~labels:
      [
        ("algo", algo_name);
        ("cache", Option.value cache_outcome ~default:"none");
        ("result", (if ok then "ok" else "error"));
      ]
    "joinopt_optimize_latency_seconds" wall_s;
  let spans = match req.ctx with Some ctx -> Obs.Span.spans ctx | None -> [] in
  List.iter
    (fun (s : Obs.Sink.span) ->
      let name = s.Obs.Sink.name in
      if s.Obs.Sink.depth = 0 then
        Obs.Export.observe_s tel ~help:phase_help
          ~labels:
            [
              ( "phase",
                if String.starts_with ~prefix:"enumerate:" name then
                  "enumerate"
                else name );
            ]
          "joinopt_phase_latency_seconds" s.Obs.Sink.dur_s;
      if String.starts_with ~prefix:"tier:" name then
        Obs.Export.observe_s tel ~help:tier_help
          ~labels:[ ("tier", String.sub name 5 (String.length name - 5)) ]
          "joinopt_tier_latency_seconds" s.Obs.Sink.dur_s;
      if name = "enumerate:dphyp-par" then
        List.iter
          (fun (key, v) ->
            match (merge_domain key, v) with
            | Some d, Obs.Span.Float ms when ms > 0.0 ->
                Obs.Export.observe_s tel ~help:merge_help
                  ~labels:[ ("domain", string_of_int d) ]
                  "joinopt_parallel_merge_seconds" (ms /. 1000.)
            | _ -> ())
          s.Obs.Sink.attrs)
    spans;
  let provenance =
    match inspect with
    | None -> []
    | Some prov -> prov_summary graph prov
  in
  Obs.Recorder.record (Obs.Export.recorder tel)
    ~fingerprint:(Cache.Fingerprint.to_hex (Cache.Fingerprint.of_graph graph))
    ~relations:(Hypergraph.Graph.num_nodes graph)
    ~algo:algo_name ?tier ?cache:cache_outcome ~pairs ~wall_s ~minor_words
    ~major_words ~provenance ~spans ()

let export_cache_stats tel cache =
  let s = Cache.Plan_cache.stats cache in
  let req outcome v =
    Obs.Export.set_counter tel
      ~help:"Plan-cache requests by outcome"
      ~labels:[ ("outcome", outcome) ]
      "joinopt_plan_cache_requests_total" v
  in
  req "hit" s.Cache.Plan_cache.hits;
  req "miss" s.Cache.Plan_cache.misses;
  req "coalesced" s.Cache.Plan_cache.coalesced;
  Obs.Export.set_counter tel ~help:"Plan-cache evictions"
    "joinopt_plan_cache_evictions_total" s.Cache.Plan_cache.evictions;
  Obs.Export.set_gauge tel ~help:"Plan-cache total capacity"
    "joinopt_plan_cache_capacity"
    (float_of_int s.Cache.Plan_cache.capacity);
  Array.iteri
    (fun i n ->
      Obs.Export.set_gauge tel
        ~help:"Plan-cache resident entries per shard"
        ~labels:[ ("shard", string_of_int i) ]
        "joinopt_plan_cache_entries" (float_of_int n))
    (Cache.Plan_cache.shard_entries cache)

let build_profile ?cache ?inspect ~graph obs r =
  Option.map
    (fun ctx ->
      let p = Core.Optimizer.profile ctx r in
      let p =
        match cache with
        | Some c -> Obs.Metrics.with_cache p (cache_metrics c)
        | None -> p
      in
      match inspect with
      | Some prov -> Obs.Metrics.with_provenance p (prov_summary graph prov)
      | None -> p)
    obs

(* ---------- one request ---------- *)

(* The front half: validate, simplify, conflict analysis under
   [mode], hypergraph derivation, and the check that [algo] accepts
   the mode's validity filter. *)
let front ?obs ~mode ~algo ?cards ?sels tree =
  match Ot.validate tree with
  | Error e -> Error ("invalid operator tree: " ^ Ot.error_to_string e)
  | Ok () -> (
      let tree =
        Obs.Span.with_opt obs "simplify" (fun _ ->
            Conflicts.Simplify.simplify tree)
      in
      let analyzed f = Obs.Span.with_opt obs "conflict-analysis" (fun _ -> f ())
      and derived f =
        Obs.Span.with_opt obs "hypergraph-derive" (fun _ -> f ())
      in
      let tes ~conservative =
        let a =
          analyzed (fun () -> Conflicts.Analysis.analyze ~conservative tree)
        in
        (derived (fun () -> Conflicts.Derive.hypergraph ?cards ?sels a), None)
      in
      let graph, filter =
        match mode with
        | Tes_literal -> tes ~conservative:false
        | Tes_conservative -> tes ~conservative:true
        | Tes_generate_and_test ->
            let a =
              analyzed (fun () ->
                  Conflicts.Analysis.analyze ~conservative:true tree)
            in
            let g, f =
              derived (fun () -> Conflicts.Derive.ses_graph ?cards ?sels a)
            in
            (g, Some f)
        | Cdc ->
            let a = analyzed (fun () -> Conflicts.Cdc.analyze tree) in
            let g, f = derived (fun () -> Conflicts.Cdc.derive ?cards ?sels a) in
            (g, Some f)
      in
      match filter with
      | Some _ when not (Core.Optimizer.supports_filter algo) ->
          Error
            (Printf.sprintf
               "conflict mode needs a validity filter, which %s does not \
                support"
               (Core.Optimizer.name algo))
      | _ -> Ok (tree, graph, filter))

let prepare ?obs ?(conservative = false) tree =
  let mode = if conservative then Tes_conservative else Tes_literal in
  Result.map
    (fun (tree, graph, _) -> (tree, graph))
    (front ?obs ~mode ~algo:Core.Optimizer.Dphyp tree)

(* The back half: cached (or bypassed) enumeration, the error
   mapping, the result and its profile, and the telemetry record.
   [tree] turns the winning plan into the result's operator tree. *)
let serve req ?cache ?inspect ?model ?filter ?budget ?k ?dpconv_objective
    ~jobs ~algo ~tree graph =
  let outcome =
    match
      run_cached ?obs:req.ctx ?cache ?model ?filter ?budget ?k
        ?dpconv_objective ?inspect ~jobs algo graph
    with
    | r -> Ok r
    | exception Invalid_argument m -> Error m
    | exception Core.Counters.Budget_exhausted -> Error budget_error
  in
  let result =
    match outcome with
    | Ok (({ plan = Some plan; _ } as r), _) ->
        let tree = tree plan in
        Ok
          {
            tree;
            graph;
            plan;
            counters = r.counters;
            dp_entries = r.dp_entries;
            tier = r.tier;
            profile = build_profile ?cache ?inspect ~graph req.obs r;
          }
    | Ok ({ plan = None; _ }, _) -> Error "no valid plan found"
    | Error m -> Error m
  in
  Option.iter
    (fun tel -> tel_record tel req ~algo ~graph ?inspect outcome)
    req.tel;
  result

let optimize_tree ?obs ?tel ?cache ?inspect ?(mode = Tes_literal)
    ?(algo = Core.Optimizer.Dphyp) ?model ?budget ?k ?dpconv_objective
    ?(jobs = 1) ?cards ?sels tree =
  let req = start ?obs ?tel () in
  match front ?obs:req.ctx ~mode ~algo ?cards ?sels tree with
  | Error m -> Error m
  | Ok (tree, graph, filter) ->
      serve req ?cache ?inspect ?model ?filter ?budget ?k ?dpconv_objective
        ~jobs ~algo ~tree:(fun _ -> tree) graph

let optimize_sql ?obs ?tel ?cache ?inspect ?mode ?algo ?model ?budget ?k
    ?dpconv_objective ?jobs ?cards ?sels sql =
  match Obs.Span.with_opt obs "parse" (fun _ -> Sqlfront.Binder.parse_and_bind sql) with
  | Error m -> Error m
  | Ok bound ->
      optimize_tree ?obs ?tel ?cache ?inspect ?mode ?algo ?model ?budget ?k
        ?dpconv_objective ?jobs ?cards ?sels bound.tree

let optimize_graph ?obs ?tel ?cache ?inspect ?(algo = Core.Optimizer.Dphyp)
    ?model ?budget ?k ?dpconv_objective ?(jobs = 1) graph =
  let req = start ?obs ?tel () in
  let tree plan =
    Obs.Span.with_opt req.ctx "plan-emit" (fun _ ->
        Plans.Plan.to_optree graph plan)
  in
  serve req ?cache ?inspect ?model ?budget ?k ?dpconv_objective ~jobs ~algo
    ~tree graph

(* Inter-query parallelism: one pool task per query, each running the
   full sequential pipeline on whichever domain picks it up.  Every
   query derives its own graph and counters, so tasks share nothing
   but the optional sink — and Obs.Sink.emit is serialized by a
   process-wide mutex, so all per-query span contexts may stream into
   one [?sink]. *)
let run_batch ?sink ?pool ?tel ?cache ?mode ?algo ?model ?budget ?k ~jobs
    trees =
  let trees = Array.of_list trees in
  let out = Array.make (Array.length trees) (Error "query was not run") in
  let go pool =
    Parallel.Pool.run_fun pool (Array.length trees) (fun i _wid ->
        let obs = Option.map (fun sink -> Obs.Span.create ~sink ()) sink in
        out.(i) <-
          optimize_tree ?obs ?tel ?cache ?mode ?algo ?model ?budget ?k
            trees.(i))
  in
  (match pool with
  | Some pool -> go pool
  | None -> Parallel.Pool.with_pool ~jobs go);
  Array.to_list out

let verify_on_data ?(rows = 8) ?(seed = 42) r =
  let inst = Executor.Instance.for_tree ~rows ~seed r.tree in
  let expected = Executor.Exec.eval inst r.tree in
  let got = Executor.Exec.eval inst (Plans.Plan.to_optree r.graph r.plan) in
  let universe = Executor.Exec.output_tables r.tree in
  match Executor.Bag.diff_summary ~universe expected got with
  | None -> Ok (List.length expected)
  | Some m -> Error m
