(* Parallel enumeration (suites parallel and parallel.seq,
   BENCH_parallel.json and BENCH_parallel_seq.json).

   For each workload: sequential DPhyp wall clock next to the
   domain-parallel enumerator at jobs = 1/2/4, with the derived
   speedups and their geometric mean across workloads.  The run
   aborts if any parallel configuration returns a plan whose cost
   differs from the sequential one — a speedup from a wrong plan is
   not a speedup.

   The parallel summary carries the jobs=1 wall clocks under
   per-workload keys (plus the geomean speedups); its parallel.seq
   companion carries the sequential wall clocks under the same keys,
   so a 1.05 gate between them holds jobs=1 within 5% of the
   sequential algorithm — the dispatch overhead gate.  The speedup
   keys exist only in the main document and are not gated: wall-clock
   speedup is a property of the host (see "host_cores"), not of the
   code. *)

module Opt = Core.Optimizer
module G = Hypergraph.Graph

let jobs_levels = [ 1; 2; 4 ]

(* The saturation workloads: star-16 (hub-and-spokes,
   emission-bound) and clique-16 (dense, ~21.5M csg-cmp-pairs, the
   enumeration-bound extreme).  The sub-second star runs go first:
   measuring them in the minutes after the clique workload has freed
   its ~1.5 GB of pair buffers picks up the OS-side reclamation cost
   as phantom whole-factor noise.  Quick mode trims both to 10
   relations so @bench-smoke stays fast. *)
let workloads ~quick =
  if quick then
    [
      ("star10", Workloads.Shapes.star 9);
      ("clique10", Workloads.Shapes.clique 10);
    ]
  else
    [
      ("star16", Workloads.Shapes.star 15);
      ("clique16", Workloads.Shapes.clique 16);
    ]

let plan_cost (r : Opt.result) =
  match r.plan with Some p -> p.Plans.Plan.cost | None -> nan

(* Per workload: compact once, run one unmeasured sequential warmup to
   re-grow the heap to steady state (a warmup over 10 s is itself the
   sequential sample), then give every configuration the best of
   three. *)
let point (name, g) =
  Gc.compact ();
  let warm = Bench_util.time_ms (fun () -> Opt.run Opt.Dphyp g) in
  let seq_ms, seq_r =
    if fst warm > 10_000.0 then warm
    else Bench_util.time_best (fun () -> Opt.run Opt.Dphyp g)
  in
  let seq_cost = plan_cost seq_r in
  let by_jobs =
    List.concat_map
      (fun jobs ->
        Parallel.Pool.with_pool ~jobs (fun pool ->
            let ms, r =
              Bench_util.time_best (fun () -> Parallel.Par_dphyp.run ~pool g)
            in
            if plan_cost r <> seq_cost then
              Bench_util.die "parallel: %s jobs=%d cost %.17g <> sequential %.17g"
                name jobs (plan_cost r) seq_cost;
            Bench_util.
              [
                (Printf.sprintf "ms_j%d" jobs, Num ms);
                (Printf.sprintf "speedup_j%d" jobs, Num (seq_ms /. ms));
              ]))
      jobs_levels
  in
  Bench_util.
    [
      ("workload", Str name);
      ("relations", Int (G.num_nodes g));
      ("ccp", Int seq_r.Opt.counters.Core.Counters.ccp_emitted);
      ("seq_ms", Num seq_ms);
    ]
  @ by_jobs

let run ~quick ~path =
  let workloads = workloads ~quick in
  let points = Bench_util.measure_points point workloads in
  let per_workload key =
    List.map2 (fun (w, _) p -> (w ^ "_ms", List.assoc key p)) workloads points
  in
  let geomean jobs =
    ( Printf.sprintf "geomean_speedup_j%d" jobs,
      Bench_util.Num
        (Bench_util.geomean
           (List.map
              (fun p -> Bench_util.field p (Printf.sprintf "speedup_j%d" jobs))
              points)) )
  in
  Bench_util.write_ledger ~quick ~path ~suite:"parallel" ~points
    (per_workload "ms_j1" @ List.map geomean jobs_levels);
  Bench_util.write_ledger ~quick ~path ~suite:"parallel.seq"
    (per_workload "seq_ms")
