(* DPhyp per-pair figures (suites dphyp and dphyp-telemetry,
   BENCH_dphyp.json).

   One point per (workload family, family member): DPhyp wall clock
   next to the machine-independent counters, plus the derived
   per-pair figures (ns per emitted csg-cmp-pair, ns per considered
   candidate pair, pairs per second).  The per-pair numbers are the
   ones the paper's engineering argument is about: enumeration time
   should be proportional to the number of csg-cmp-pairs, so a
   regression in ns/pair is a regression in the enumeration core no
   matter how the workload mix shifts.

   The summary aggregates the hyperedge-heavy family members (graphs
   that still carry at least one complex edge) as a geometric mean of
   ns/ccp per family — the figure the gates compare.

   Suite dphyp-telemetry reruns the identical measurement with
   always-on serving telemetry attached: every measured optimization
   also pays for a graph fingerprint, a latency-histogram record and a
   flight-recorder push — the per-request overhead of the
   Driver.Pipeline [?tel] path.  The summary keys are unchanged, so a
   1.05 gate between the two documents is the "telemetry costs at most
   5%" acceptance gate. *)

module Opt = Core.Optimizer
module G = Hypergraph.Graph

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

(* The workload families: the paper's hyperedge-split families
   (Figures 5/6, Tables 1/2) plus the pure star of Figure 7.  Family
   members are named <base>-s<k> where k is the number of splits
   applied to the initial hyperedge — numbered before quick mode trims
   a family, so a quick point names the same graph as the full point
   of that name. *)
let families ~quick =
  let split_family name fam =
    let fam = List.mapi (fun i g -> (Printf.sprintf "%s-s%d" name i, g)) fam in
    if quick then
      (* keep the endpoints and one midpoint: enough to smoke-test *)
      match fam with
      | a :: rest when List.length rest > 2 ->
          let arr = Array.of_list rest in
          [ a; arr.(Array.length arr / 2); arr.(Array.length arr - 1) ]
      | l -> l
    else fam
  in
  [
    ("table2_star4", split_family "star4" (Workloads.Splits.star_based 4));
    ("fig6a_star8", split_family "star8" (Workloads.Splits.star_based 8));
    ("fig6b_star16", split_family "star16" (Workloads.Splits.star_based 16));
    ("fig5b_cycle16", split_family "cycle16" (Workloads.Splits.cycle_based 16));
    ("fig7_star16", [ ("star16-pure", Workloads.Shapes.star 15) ]);
  ]

let run ~telemetry ~quick ~path names =
  let tel = if telemetry then Some (Obs.Export.create ()) else None in
  let fams = Bench_util.select ~what:"family" (families ~quick) names in
  let point (experiment, (graph, g)) =
    let m =
      Bench_util.measure_run
        (match tel with
        | None -> fun () -> Opt.run Opt.Dphyp g
        | Some tel -> instrumented tel g)
    in
    Bench_util.
      [
        ("experiment", Str experiment);
        ("graph", Str graph);
        ("relations", Int (G.num_nodes g));
        ("edges", Int (G.num_edges g));
        ("complex_edges", Int (List.length (G.complex_edges g)));
        ("algo", Str "dphyp");
        ("ms", Num m.ms);
        ("ccp", Int m.ccp);
        ("pairs", Int m.pairs);
        ("neighborhoods", Int m.nbh);
        ("dp_entries", Int m.entries);
        ("ns_per_ccp", Num (m.ms *. 1e6 /. float_of_int (max 1 m.ccp)));
        ("ns_per_pair", Num (m.ms *. 1e6 /. float_of_int (max 1 m.pairs)));
        ("pairs_per_sec", Num (float_of_int m.pairs /. (m.ms /. 1e3)));
      ]
  in
  let points =
    Bench_util.measure_points point
      (List.concat_map
         (fun (experiment, members) ->
           List.map (fun m -> (experiment, m)) members)
         fams)
  in
  let summary =
    List.filter_map
      (fun (experiment, _) ->
        match
          List.filter
            (fun p ->
              List.assoc "experiment" p = Bench_util.Str experiment
              && Bench_util.field p "complex_edges" > 0.0)
            points
        with
        | [] -> None
        | heavy ->
            Some
              ( experiment ^ "_hyper_ns_per_ccp",
                Bench_util.Num
                  (Bench_util.geomean
                     (List.map (fun p -> Bench_util.field p "ns_per_ccp") heavy))
              ))
      fams
  in
  Bench_util.write_ledger ~quick ~path
    ~suite:(if telemetry then "dphyp-telemetry" else "dphyp")
    ~points summary
