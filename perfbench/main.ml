(* End-to-end and per-layer benchmark of the optimizer served through
   [Driver.Pipeline] with a plan cache and a telemetry registry attached.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   One client, closed loop, one process per workload.  The last line
   of standard output is the JSON result; the lines before it print
   every metric by name and unit, host_cores and the check summary.
   See perfbench/README.md for the workloads and metrics. *)

module P = Driver.Pipeline
module Pc = Cache.Plan_cache

let default_seed = 1

type workload = Sql_replay | Dphyp_exact | Adaptive_hard

let workloads =
  [ ("sql_replay", Sql_replay); ("dphyp_exact", Dphyp_exact); ("adaptive_hard", Adaptive_hard) ]

let name wl = fst (List.find (fun (_, w) -> w = wl) workloads)

let algo = function Adaptive_hard -> Core.Optimizer.Adaptive | _ -> Core.Optimizer.Dphyp

(* Plan-cache capacity: about a third of the sql_replay universe, so the
   Zipf stream both hits and evicts. *)
let capacity = Gen.universe_size / 3

type req = Sql of Gen.template | Graph of { pass : int; g : Gen.graph_req }

(* ---------- set-up: inputs, cache, registry, warm-up ---------- *)

type state = {
  wl : workload;
  seed : int;
  cache : P.plan_cache;
  tel : Obs.Export.t;
  batch : int -> req array;  (** the measured stream, batch by batch *)
  warmup : req array;
}

let sql_batch = 1024

let graph_pass wl ~seed pass =
  let reqs =
    match wl with
    | Adaptive_hard -> Gen.adaptive_pass ~seed pass
    | _ -> Gen.dphyp_pass ~seed pass
  in
  Array.map (fun g -> Graph { pass; g }) reqs

let serve ?tel st = function
  | Sql t ->
      P.optimize_sql ?tel ~cache:st.cache
        ~cards:(fun i -> t.Gen.cards.(i))
        ~sels:(fun i -> t.Gen.sels.(i))
        t.Gen.sql
  | Graph { g; _ } -> P.optimize_graph ?tel ~cache:st.cache ~algo:(algo st.wl) g.Gen.graph

let setup wl seed =
  let cache = P.make_cache ~capacity () and tel = Obs.Export.create () in
  let batch, warmup =
    match wl with
    | Sql_replay ->
        let universe = Gen.universe seed in
        let cdf = Gen.zipf_cdf ~alpha:1.0 Gen.universe_size in
        let draws r n = Array.init n (fun _ -> Sql universe.(Gen.zipf_draw cdf r)) in
        let stream = Gen.rng seed [ 4 ] in
        (* batches are drawn in order, so batch i is the same for a seed *)
        ((fun _ -> draws stream sql_batch), draws (Gen.rng seed [ 5 ]) 1000)
    | Dphyp_exact | Adaptive_hard ->
        (* warm-up: enough cheap distinct TPC-H graphs to fill the plan
           cache and the flight recorder, so the stream runs in steady
           state *)
        let r = Gen.rng seed [ 6 ] in
        let qs = Array.of_list Workloads.Tpch.query_names in
        let tpch i =
          let q = qs.(i mod Array.length qs) in
          let graph = Workloads.Tpch.query ~sf:(0.5 +. Random.State.float r 1.5) q in
          Graph { pass = -1; g = { Gen.label = "tpch-" ^ q; graph } }
        in
        let first = graph_pass wl ~seed 0 in
        ((fun pass -> if pass = 0 then first else graph_pass wl ~seed pass), Array.init 320 tpch)
  in
  let st = { wl; seed; cache; tel; batch; warmup } in
  Array.iter (fun r -> ignore (serve ~tel st r)) warmup;
  st

(* ---------- output checks ---------- *)

type checks = {
  mutable failed : int;
  mutable nonfinite : int;
  mutable ref_checked : int;
  mutable ref_skipped : int;
  mutable first_failure : string;
  mutable templates_checked : int;
  mutable nonempty_bags : int;
  reference : Reference.t;
}

let fail ck msg =
  ck.failed <- ck.failed + 1;
  if ck.first_failure = "" then ck.first_failure <- msg

(* Plan_check on every plan; the stored optimum where one exists. *)
let check_result ck st req (res : (P.result, string) result) =
  match res with
  | Error m -> fail ck ("request returned Error: " ^ m)
  | Ok r -> (
      let cost = r.P.plan.Plans.Plan.cost in
      if not (Float.is_finite cost) then ck.nonfinite <- ck.nonfinite + 1;
      match Plans.Plan_check.check r.P.graph r.P.plan with
      | issue :: _ -> fail ck ("Plan_check: " ^ Plans.Plan_check.issue_to_string issue)
      | [] -> (
          match req with
          | Sql _ -> ()
          | Graph { pass; g; _ } when Reference.applies (name st.wl) g.Gen.graph -> (
              if st.seed <> default_seed then ck.ref_skipped <- ck.ref_skipped + 1
              else
                match Reference.find ck.reference (name st.wl) pass g.Gen.graph with
                | `Optimum c ->
                    ck.ref_checked <- ck.ref_checked + 1;
                    if not (Float.equal c cost) then
                      fail ck
                        (Printf.sprintf "%s pass %d: cost %h, reference optimum %h" g.Gen.label
                           pass cost c)
                | `Missing ->
                    fail ck
                      (Printf.sprintf "%s pass %d: input not in the stored reference" g.Gen.label
                         pass)
                | `Beyond -> ck.ref_skipped <- ck.ref_skipped + 1)
          | Graph _ -> ()))

(* Once per sql_replay template the stream requested, outside timing: a
   cached hit is byte-identical to a fresh uncached run, and the plan
   returns the same bag as the initial operator tree on generated data
   (the executor is independent of the optimizer).  A failing template
   fails every request made for it. *)
let check_templates ck (counts : (int, Gen.template * int) Hashtbl.t) =
  Hashtbl.iter
    (fun _ ((t : Gen.template), n) ->
      ck.templates_checked <- ck.templates_checked + 1;
      let run cache =
        P.optimize_sql ?cache ~cards:(fun i -> t.cards.(i)) ~sels:(fun i -> t.sels.(i)) t.sql
      in
      let cache = P.make_cache ~capacity:4 () in
      let problem =
        match (run None, run (Some cache), run (Some cache)) with
        | Ok fresh, Ok _, Ok hit -> (
            if (Pc.stats cache).Pc.hits <> 1 then Some "second request was not a cache hit"
            else if Marshal.to_string fresh.P.plan [] <> Marshal.to_string hit.P.plan [] then
              Some "cached plan differs from a fresh run"
            else
              (* 6 rows per table keep 14-way joins cheap while about
                 two in five templates still produce a non-empty bag *)
              match P.verify_on_data ~rows:6 hit with
              | Ok rows ->
                  if rows > 0 then ck.nonempty_bags <- ck.nonempty_bags + 1;
                  None
              | Error m -> Some ("verify_on_data: " ^ m))
        | _ -> Some "template returned Error"
      in
      Option.iter
        (fun m ->
          fail ck (Printf.sprintf "template %d: %s" t.id m);
          ck.failed <- ck.failed + n - 1)
        problem)
    counts

(* A deliberately wrong plan: the root join forgets its predicates, which
   Plan_check reports as missed edges.  Only the self-test plants it. *)
let plant (r : P.result) =
  match r.P.plan.Plans.Plan.tree with
  | Plans.Plan.Join j ->
      { r with P.plan = { r.P.plan with tree = Plans.Plan.Join { j with edge_ids = [] } } }
  | _ -> r

(* ---------- the measured stream ---------- *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

type stream = {
  mutable requests : int;
  mutable wall_s : float;  (** request time, batch by batch *)
  mutable words : float;
  mutable latencies : Float.Array.t;  (** the first [requests] entries are used *)
  by_label : (string, float list) Hashtbl.t;  (** graph workloads: latencies per family *)
  mutable order : req array list;  (** batches served, newest first *)
  mutable batch_wall : float list;  (** newest first *)
  tiers : (string, int) Hashtbl.t;
  templates : (int, Gen.template * int) Hashtbl.t;
}

let run_stream ?(plant_wrong = false) ?(keep_order = false) ck st ~seconds =
  let s =
    {
      requests = 0;
      wall_s = 0.;
      words = 0.;
      (* preallocated, so the stream's own bookkeeping does not grow the
         heap while it runs *)
      latencies = Float.Array.make (1 lsl 17) 0.;
      by_label = Hashtbl.create 64;
      order = [];
      batch_wall = [];
      tiers = Hashtbl.create 8;
      templates = Hashtbl.create 512;
    }
  in
  let c0 = Pc.stats st.cache in
  let i = ref 0 in
  while s.wall_s < seconds do
    let reqs = st.batch !i in
    incr i;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let out =
      Array.map
        (fun r ->
          let a = Unix.gettimeofday () in
          let res = serve ~tel:st.tel st r in
          (res, Unix.gettimeofday () -. a))
        reqs
    in
    let dt = Unix.gettimeofday () -. t0 in
    s.words <- s.words +. (Gc.minor_words () -. w0);
    s.wall_s <- s.wall_s +. dt;
    s.batch_wall <- dt :: s.batch_wall;
    if keep_order then s.order <- reqs :: s.order;
    Array.iteri
      (fun k (res, lat) ->
        let req = reqs.(k) in
        let res =
          if plant_wrong && s.requests = 0 && k = 0 then Result.map plant res else res
        in
        let n = s.requests + k in
        if n >= Float.Array.length s.latencies then begin
          let a = Float.Array.make (2 * n) 0. in
          Float.Array.blit s.latencies 0 a 0 n;
          s.latencies <- a
        end;
        Float.Array.set s.latencies n lat;
        (match res with
        | Ok { P.tier = Some t; _ } ->
            let n = Core.Adaptive.tier_name t in
            Hashtbl.replace s.tiers n (1 + Option.value (Hashtbl.find_opt s.tiers n) ~default:0)
        | _ -> ());
        (match req with
        | Sql t ->
            let n = match Hashtbl.find_opt s.templates t.id with Some (_, n) -> n | None -> 0 in
            Hashtbl.replace s.templates t.id (t, n + 1)
        | Graph { g; _ } ->
            let l = g.Gen.label in
            let ls = Option.value (Hashtbl.find_opt s.by_label l) ~default:[] in
            Hashtbl.replace s.by_label l (lat :: ls));
        check_result ck st req res)
      out;
    s.requests <- s.requests + Array.length reqs;
    (* compacting between batches, outside the timed part, makes the
       heap peak that of one batch's work rather than of how much
       fragmentation the run happened to accumulate *)
    Gc.compact ()
  done;
  let c1 = Pc.stats st.cache in
  (s, c0, c1)

(* ---------- metrics ---------- *)

let ratio a b = if b = 0. then 0. else a /. b

(* Nearest-rank percentile, with the number of samples above it. *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  (sorted.(rank - 1), n - rank)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let host_cores () = Domain.recommended_domain_count ()

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun x -> Printf.printf "%-34s %.6g %s\n" x.name x.value x.unit_) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           let v = if Float.is_finite x.value then x.value else 0. in
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name v x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let summary ck st s (c0 : Pc.stats) (c1 : Pc.stats) =
  let lat = Array.init s.requests (Float.Array.get s.latencies) in
  Array.sort compare lat;
  let p90, b90 = percentile lat 0.90 and p99, b99 = percentile lat 0.99 in
  let signif b = if b >= 10 then "" else " (fewer than 10 samples above: not significant)" in
  Printf.printf "host_cores %d\n" (host_cores ());
  Printf.printf "requests %d, latency samples %d\n" s.requests (Array.length lat);
  Printf.printf "latency p90 %.4f ms, %d samples above%s\n" (p90 *. 1e3) b90 (signif b90);
  Printf.printf "latency p99 %.4f ms, %d samples above%s\n" (p99 *. 1e3) b99 (signif b99);
  Printf.printf "plan cache: hits %d, misses %d, evictions %d\n" (c1.Pc.hits - c0.Pc.hits)
    (c1.Pc.misses - c0.Pc.misses) (c1.Pc.evictions - c0.Pc.evictions);
  Printf.printf "checks: failed %d of %d requests; non-finite costs %d\n" ck.failed s.requests
    ck.nonfinite;
  let share k = ratio (float_of_int (min k s.requests)) (float_of_int s.requests) in
  Printf.printf "nonfinite_cost_share %.6g ratio\nerror_share %.6g ratio\n" (share ck.nonfinite)
    (share ck.failed);
  if st.seed <> default_seed && ck.ref_skipped > 0 then
    Printf.printf "reference optimum: check skipped on %d requests (stored for --seed %d only)\n"
      ck.ref_skipped default_seed
  else if ck.ref_checked + ck.ref_skipped > 0 then
    Printf.printf "reference optimum: checked %d, skipped %d beyond the stored passes\n"
      ck.ref_checked ck.ref_skipped;
  if ck.first_failure <> "" then Printf.printf "first failure: %s\n" ck.first_failure;
  Hashtbl.iter (fun t n -> Printf.printf "adaptive tier %s: %d requests\n" t n) s.tiers;
  List.iter
    (fun (l, ls) ->
      Printf.printf "latency %-14s median %9.3f ms over %d\n" l (median ls *. 1e3)
        (List.length ls))
    (List.sort compare (Hashtbl.fold (fun l ls acc -> (l, ls) :: acc) s.by_label []));
  (lat, p90, p99)

(* ---------- the two kinds of run ---------- *)

let new_checks () =
  {
    failed = 0;
    nonfinite = 0;
    ref_checked = 0;
    ref_skipped = 0;
    first_failure = "";
    templates_checked = 0;
    nonempty_bags = 0;
    reference = Reference.load ();
  }

let finish_checks ck s =
  check_templates ck s.templates;
  if ck.templates_checked > 0 then
    Printf.printf
      "templates checked %d (cached hit = fresh run, verify_on_data: %d non-empty bags)\n"
      ck.templates_checked ck.nonempty_bags

(* Trace 0: the end-to-end metrics, tracing off. *)
let end_to_end ~plant_wrong wl seed seconds =
  let times = ref [] and st = ref None in
  for _ = 1 to 7 do
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let x = setup wl seed in
    times := (Unix.gettimeofday () -. t0) :: !times;
    st := Some x
  done;
  let st = Option.get !st in
  Gc.compact ();
  let ck = new_checks () in
  let s, c0, c1 = run_stream ~plant_wrong ck st ~seconds in
  let heap = peak_heap_mb () in
  finish_checks ck s;
  let lat, _, _ = summary ck st s c0 c1 in
  let p50, _ = percentile lat 0.5 in
  let n = float_of_int s.requests in
  print_result ~correct:(ck.failed = 0) ~attempted:s.requests ~failed:(min ck.failed s.requests)
    [
      m "setup_s" "s" (median !times);
      m "throughput_qps" "1/s" (ratio n s.wall_s);
      m "latency_p50_ms" "ms" (p50 *. 1e3);
      m "minor_words_per_req" "words" (ratio s.words n);
      m "peak_heap_mb" "MB" heap;
    ]

(* Trace 1: the same stream untraced, for the cache, tier and tail
   figures; then a replay of its first quarter (below); then the
   enumeration / emission probes on every DPhyp table the traced replay
   built. *)
let traced wl seed seconds =
  let st = setup wl seed in
  Gc.compact ();
  let ck = new_checks () in
  let s, c0, c1 = run_stream ~keep_order:true ck st ~seconds in
  finish_checks ck s;
  let lat, p90, p99 = summary ck st s c0 c1 in
  (* the replayed prefix: whole batches covering a quarter of the time *)
  let batches = List.rev s.order and walls = List.rev s.batch_wall in
  let rec prefix acc t bs ws =
    match (bs, ws) with
    | b :: bs, w :: ws when acc = [] || t +. w <= seconds /. 4. ->
        prefix (b :: acc) (t +. w) bs ws
    | _ -> (List.rev acc, t)
  in
  let replay, _ = prefix [] 0. batches walls in
  let reqs = Array.concat replay in
  let n = Array.length reqs in
  (* Replay the prefix four ways, interleaved request by request so that
     host noise hits all four alike: the pipeline with and without the
     telemetry registry, and the layer mirror with spans off and on.
     Each way has its own plan cache, set up and warmed identically. *)
  let st_tel = setup wl seed and st_plain = setup wl seed in
  (* plan cost and tier of each replayed request, pipeline vs mirror *)
  let served = Array.make n (None, "") and mirrored = Array.make n (None, "") in
  let serve_mirror mr i r =
    let v =
      Trace.request mr.Layers.tr i (fun () ->
          match r with
          | Sql t -> Layers.sql mr t
          | Graph { g; _ } -> Some (Layers.graph mr (algo wl) g.Gen.graph))
    in
    if mr.Layers.tr.Trace.enabled && i < n then
      mirrored.(i) <-
        (match v with
        | Some { Layers.plan = Some p; tier } -> (Some p.Plans.Plan.cost, tier)
        | _ -> (None, ""))
  in
  let warm_mirror tr =
    let mr = Layers.create tr ~capacity in
    Array.iteri (serve_mirror { mr with Layers.tr = Trace.create ~enabled:false () }) st.warmup;
    mr
  in
  let tr = Trace.create () in
  let plain = warm_mirror (Trace.create ~enabled:false ()) and mirror = warm_mirror tr in
  let ways =
    [|
      (fun i r ->
        served.(i) <-
          (match serve ~tel:st_tel.tel st_tel r with
          | Ok res ->
              ( Some res.P.plan.Plans.Plan.cost,
                match res.P.tier with Some t -> Core.Adaptive.tier_name t | None -> "" )
          | Error _ -> (None, "")));
      (fun _ r -> ignore (serve st_plain r));
      serve_mirror plain;
      serve_mirror mirror;
    |]
  in
  let wall = Array.make 4 0. in
  Gc.compact ();
  Array.iteri
    (fun i r ->
      for k = 0 to 3 do
        let w = (i + k) mod 4 in
        let t0 = Unix.gettimeofday () in
        ways.(w) i r;
        wall.(w) <- wall.(w) +. (Unix.gettimeofday () -. t0)
      done)
    reqs;
  let layer_s = Trace.layer_time tr in
  Printf.printf
    "replayed prefix: %d requests; pipeline %.3f s with telemetry, %.3f s without; \
     mirror %.3f s, traced %.3f s\n"
    n wall.(0) wall.(1) wall.(2) wall.(3);
  let drift = ref 0 in
  Array.iteri (fun i o -> if o <> mirrored.(i) then incr drift) served;
  if !drift > 0 then
    Printf.printf
      "warning: the layer mirror disagrees with the pipeline (plan cost or tier) on %d requests\n"
      !drift;
  let split = Layers.new_split () in
  let dp_runs = List.rev mirror.Layers.dp_runs in
  List.iter (Layers.probe tr split) dp_runs;
  let tot = Trace.totals tr in
  let get name = Trace.find tot name in
  let nf = float_of_int n in
  let per_req name = ratio (get name).Trace.self_s nf *. 1e6 in
  let per_call f name = let t = get name in ratio (f t) (float_of_int t.Trace.calls) in
  let ccps = float_of_int split.Layers.ccps in
  let bounded = List.filter (fun (r : Layers.dp_run) -> r.bound <> None) dp_runs in
  let sum f = List.fold_left (fun a (r : Layers.dp_run) -> a + f r) 0 in
  let connected = sum (fun r -> Hypergraph.Csg_enum.count_connected_subgraphs r.graph) bounded in
  let tier name = float_of_int (Option.value (Hashtbl.find_opt s.tiers name) ~default:0) in
  let idp =
    Hashtbl.fold (fun k v a -> if String.starts_with ~prefix:"idp" k then a + v else a) s.tiers 0
  in
  let part = get "partition" in
  let dpconv = get "dpconv" in
  Printf.printf "emission share cross-check: (solve - enum) / solve = %.3f\n"
    (ratio (split.solve_s -. split.enum_s) split.solve_s);
  if split.mismatches > 0 then
    Printf.printf "warning: %d replayed emission tables disagree with their solve\n"
      split.mismatches;
  Trace.write tr (Printf.sprintf ".perfbench/trace-%s-seed%d.jsonl" (name wl) seed);
  let lookups (c : Pc.stats) = c.hits + c.misses + c.coalesced in
  let hits = float_of_int (c1.Pc.hits - c0.Pc.hits)
  and lookups = float_of_int (lookups c1 - lookups c0) in
  let entries = sum (fun r -> r.entries) in
  let calls (t : Trace.totals) = float_of_int t.calls in
  print_result ~correct:(ck.failed = 0) ~attempted:s.requests ~failed:(min ck.failed s.requests)
    [
      m "sqlfront.us_per_req" "us" (per_req "sqlfront");
      m "sqlfront.words_per_req" "words" (ratio (get "sqlfront").Trace.self_words nf);
      m "conflicts.us_per_req" "us" (per_req "conflicts");
      m "cache.fingerprint_us" "us" (per_call (fun t -> t.Trace.self_s *. 1e6) "cache.fingerprint");
      m "cache.key_us" "us" (per_call (fun t -> t.Trace.self_s *. 1e6) "cache.key");
      m "cache.lookup_us" "us" (per_call (fun t -> t.Trace.self_s *. 1e6) "cache.lookup:hit");
      m "cache.hit_ratio" "ratio" (ratio hits lookups);
      m "cache.evictions" "count" (float_of_int (c1.Pc.evictions - c0.Pc.evictions));
      m "obs.tel_us_per_req" "us" (ratio (wall.(0) -. wall.(1)) nf *. 1e6);
      m "dphyp.enum_ns_per_ccp" "ns" (ratio split.enum_s ccps *. 1e9);
      m "dphyp.enum_words_per_ccp" "words" (ratio split.enum_words ccps);
      m "dphyp.neighborhoods_per_ccp" "count" (ratio (float_of_int split.neighborhoods) ccps);
      m "emit.ns_per_ccp" "ns" (ratio split.emit_s ccps *. 1e9);
      m "emit.words_per_ccp" "words" (ratio split.emit_words ccps);
      m "emit.cost_calls_per_ccp" "count" (ratio (float_of_int split.cost_calls) ccps);
      m "emit.share" "ratio" (ratio split.emit_s split.solve_s);
      m "dp_table.entries_per_req" "count" (ratio (float_of_int (entries dp_runs)) nf);
      m "dpconv.ms_per_req" "ms" (ratio dpconv.Trace.total_s (calls dpconv) *. 1e3);
      m "adaptive.pruned_entries_ratio" "ratio"
        (ratio (float_of_int (entries bounded)) (float_of_int connected));
      m "partition.ms_per_req" "ms" (ratio part.Trace.total_s (calls part) *. 1e3);
      m "partition.pairs_per_req" "count"
        (ratio (float_of_int mirror.Layers.partition_pairs) (calls part));
      m "partition.nonfinite_cost_share" "ratio"
        (ratio (float_of_int mirror.Layers.partition_nonfinite) (calls part));
      m "adaptive.tier.exact" "count" (tier "exact");
      m "adaptive.tier.dpconv" "count" (tier "dpconv");
      m "adaptive.tier.partitioned" "count" (tier "partitioned");
      m "adaptive.tier.idp" "count" (float_of_int idp);
      m "adaptive.tier.greedy" "count" (tier "greedy");
      m "pipeline.unattributed_us" "us" (ratio (wall.(0) -. layer_s) nf *. 1e6);
      m "trace.overhead_share" "ratio" (ratio (wall.(3) -. wall.(2)) wall.(2));
      m "latency_p90_ms" "ms" (p90 *. 1e3);
      m "latency_p99_ms" "ms" (p99 *. 1e3);
      m "latency.samples" "count" (float_of_int (Array.length lat));
      m "nonfinite_cost_share" "ratio"
        (ratio (float_of_int ck.nonfinite) (float_of_int s.requests));
      m "error_share" "ratio"
        (ratio (float_of_int (min ck.failed s.requests)) (float_of_int s.requests));
      m "host_cores" "count" (float_of_int (host_cores ()));
    ]

(* ---------- reference optima ---------- *)

let write_reference wl passes =
  let optimum algo g =
    match (Core.Optimizer.run algo g).Core.Optimizer.plan with
    | Some p -> p.Plans.Plan.cost
    | None -> nan
  in
  let extend pass_requests algo =
    Reference.extend (Reference.load ()) ~workload:(name wl) ~passes ~pass_requests
      ~optimum:(optimum algo)
  in
  match wl with
  | Sql_replay -> prerr_endline "sql_replay has no stored optima"
  | Dphyp_exact -> extend (Gen.dphyp_pass ~seed:default_seed) Core.Optimizer.Tdpart
  | Adaptive_hard -> extend (Gen.adaptive_pass ~seed:default_seed) Core.Optimizer.Dphyp

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10. and trace = ref 0 in
  let plant_wrong = ref false and reference_passes = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sql_replay | dphyp_exact | adaptive_hard");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured stream time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--plant-wrong-plan", Arg.Set plant_wrong, " corrupt one returned plan (self-test)");
      ( "--write-reference",
        Arg.Set_int reference_passes,
        "P store optima for P passes of the default seed" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !reference_passes > 0 then write_reference wl !reference_passes
  else if !trace = 1 then begin
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    traced wl !seed !seconds
  end
  else end_to_end ~plant_wrong:!plant_wrong wl !seed !seconds
