(* Machine-readable benchmark output (BENCH_dphyp.json).

   One record per (workload family, family member): DPhyp wall clock
   next to the machine-independent counters, plus the derived
   per-pair figures (ns per emitted csg-cmp-pair, ns per considered
   candidate pair, pairs per second).  The per-pair numbers are the
   ones the paper's engineering argument is about: enumeration time
   should be proportional to the number of csg-cmp-pairs, so a
   regression in ns/pair is a regression in the enumeration core no
   matter how the workload mix shifts.

   The [summary] block aggregates the hyperedge-heavy family members
   (graphs that still carry at least one complex edge) as a geometric
   mean of ns/ccp per family, which is what tools/bench_smoke.sh and
   PR before/after comparisons consume.

   [--telemetry] reruns the identical measurement with always-on
   serving telemetry attached: every measured optimization also pays
   for a graph fingerprint, a latency-histogram record and a
   flight-recorder push — the per-request overhead of the
   Driver.Pipeline [?tel] path.  The summary keys are unchanged, so
     bench_diff --threshold 1.05 <plain> <telemetry>
   is the "telemetry costs at most 5%" acceptance gate. *)

module Opt = Core.Optimizer
module G = Hypergraph.Graph

type record = {
  experiment : string;
  graph : string;
  relations : int;
  edges : int;
  complex_edges : int;
  ms : float;
  ccp : int;
  pairs : int;
  neighborhoods : int;
  dp_entries : int;
}

(* The always-on serving overhead, paid inside the measured closure:
   the same per-request work Driver.Pipeline's [?tel] path does around
   each optimization — read this domain's allocation counters,
   fingerprint the graph, record the wall clock into the latency
   histogram, push a flat record (with allocation deltas) into the
   flight recorder. *)
let instrumented tel g () =
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = Obs.Span.now () in
  let r = Opt.run Opt.Dphyp g in
  let wall = Obs.Span.now () -. t0 in
  Obs.Export.observe_s tel
    ~labels:[ ("algo", "dphyp"); ("cache", "none"); ("result", "ok") ]
    "joinopt_optimize_latency_seconds" wall;
  Obs.Recorder.record
    (Obs.Export.recorder tel)
    ~fingerprint:(Cache.Fingerprint.to_hex (Cache.Fingerprint.of_graph g))
    ~relations:(G.num_nodes g) ~algo:"dphyp"
    ~pairs:r.Opt.counters.Core.Counters.pairs_considered
    ~wall_s:wall
    ~minor_words:(Gc.minor_words () -. minor0)
    ~major_words:((Gc.quick_stat ()).Gc.major_words -. major0)
    ();
  r

let measure_record ?tel ~experiment ~graph g =
  let m =
    match tel with
    | None -> Bench_util.measure Opt.Dphyp g
    | Some tel ->
        let ms, r = Bench_util.time_ms (instrumented tel g) in
        {
          Bench_util.ms;
          ccp = r.Opt.counters.Core.Counters.ccp_emitted;
          pairs = r.Opt.counters.Core.Counters.pairs_considered;
          nbh = r.Opt.counters.Core.Counters.neighborhood_calls;
          cost =
            (match r.Opt.plan with
            | Some p -> p.Plans.Plan.cost
            | None -> nan);
          entries = r.Opt.dp_entries;
        }
  in
  {
    experiment;
    graph;
    relations = G.num_nodes g;
    edges = G.num_edges g;
    complex_edges = List.length (G.complex_edges g);
    ms = m.Bench_util.ms;
    ccp = m.Bench_util.ccp;
    pairs = m.Bench_util.pairs;
    neighborhoods = m.Bench_util.nbh;
    dp_entries = m.Bench_util.entries;
  }

let ns_per_ccp r = r.ms *. 1e6 /. float_of_int (max 1 r.ccp)

let ns_per_pair r = r.ms *. 1e6 /. float_of_int (max 1 r.pairs)

let pairs_per_sec r = float_of_int r.pairs /. (r.ms /. 1e3)

(* The workload families: the paper's hyperedge-split families
   (Figures 5/6, Tables 1/2) plus the pure star of Figure 7.  Family
   members are named <base>-s<k> where k is the number of splits
   applied to the initial hyperedge. *)
let families ~quick =
  let split_family name fam =
    let fam =
      if quick then
        (* keep the endpoints and one midpoint: enough to smoke-test *)
        match fam with
        | a :: rest when List.length rest > 2 ->
            let arr = Array.of_list rest in
            [ a; arr.(Array.length arr / 2); arr.(Array.length arr - 1) ]
        | l -> l
      else fam
    in
    List.mapi (fun i g -> (Printf.sprintf "%s-s%d" name i, g)) fam
  in
  [
    ("table2_star4", split_family "star4" (Workloads.Splits.star_based 4));
    ("fig6a_star8", split_family "star8" (Workloads.Splits.star_based 8));
    ("fig6b_star16", split_family "star16" (Workloads.Splits.star_based 16));
    ("fig5b_cycle16", split_family "cycle16" (Workloads.Splits.cycle_based 16));
    ("fig7_star16", [ ("star16-pure", Workloads.Shapes.star 15) ]);
  ]

let geomean = function
  | [] -> nan
  | xs ->
      exp (List.fold_left (fun a x -> a +. log x) 0.0 xs
           /. float_of_int (List.length xs))

let json_of_record r =
  Printf.sprintf
    "    {\"experiment\": %S, \"graph\": %S, \"relations\": %d, \"edges\": %d, \
     \"complex_edges\": %d, \"algo\": \"dphyp\", \"ms\": %.4f, \"ccp\": %d, \
     \"pairs\": %d, \"neighborhoods\": %d, \"dp_entries\": %d, \
     \"ns_per_ccp\": %.2f, \"ns_per_pair\": %.2f, \"pairs_per_sec\": %.0f}"
    r.experiment r.graph r.relations r.edges r.complex_edges r.ms r.ccp r.pairs
    r.neighborhoods r.dp_entries (ns_per_ccp r) (ns_per_pair r)
    (pairs_per_sec r)

let run ?(telemetry = false) ~quick ~path names =
  let fams = families ~quick in
  let fams =
    match names with
    | [] -> fams
    | names -> List.filter (fun (n, _) -> List.mem n names) fams
  in
  if fams = [] then begin
    Printf.eprintf "--json: no matching families; known: %s\n"
      (String.concat ", " (List.map fst (families ~quick)));
    exit 2
  end;
  let tel = if telemetry then Some (Obs.Export.create ()) else None in
  Printf.printf "JSON benchmarks (%s mode%s) -> %s\n"
    (if quick then "quick" else "full")
    (if telemetry then ", always-on telemetry" else "")
    path;
  let records =
    List.concat_map
      (fun (experiment, members) ->
        List.map
          (fun (graph, g) ->
            let r = measure_record ?tel ~experiment ~graph g in
            Printf.printf
              "  %-14s %-14s rels=%-3d cx=%-2d %8s ms  %9d ccp  %8.1f \
               ns/ccp  %7.1f ns/pair\n"
              experiment graph r.relations r.complex_edges
              (Bench_util.fmt_ms r.ms) r.ccp (ns_per_ccp r) (ns_per_pair r);
            flush stdout;
            r)
          members)
      fams
  in
  (* Per-family geometric mean of ns/ccp over the members that still
     carry hyperedges — the "hyperedge-heavy" figure the acceptance
     criteria compare before/after. *)
  let summaries =
    List.filter_map
      (fun (experiment, _) ->
        let heavy =
          List.filter
            (fun r -> r.experiment = experiment && r.complex_edges > 0)
            records
        in
        match heavy with
        | [] -> None
        | _ -> Some (experiment, geomean (List.map ns_per_ccp heavy)))
      fams
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n";
      Printf.fprintf oc "  \"schema\": \"bench_dphyp/v1\",\n";
      Printf.fprintf oc "  \"mode\": %S,\n" (if quick then "quick" else "full");
      output_string oc "  \"workloads\": [\n";
      output_string oc
        (String.concat ",\n" (List.map json_of_record records));
      output_string oc "\n  ],\n";
      output_string oc "  \"summary\": {\n";
      output_string oc
        (String.concat ",\n"
           (List.map
              (fun (name, g) ->
                Printf.sprintf "    \"%s_hyper_ns_per_ccp\": %.2f" name g)
              summaries));
      output_string oc "\n  }\n}\n");
  Printf.printf "\nhyperedge-heavy geomean ns/ccp per family:\n";
  List.iter
    (fun (name, g) -> Printf.printf "  %-16s %10.1f\n" name g)
    summaries;
  flush stdout
