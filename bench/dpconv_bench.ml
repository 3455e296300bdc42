(* Subset convolution vs exact DPhyp (suites dpconv and dpconv.dphyp,
   BENCH_dpconv.json and BENCH_dpconv_dphyp.json).

   One point per dense graph: DPconv's exact-C_max time (the Õ(2^n)
   subset-convolution pipeline), its certified C_out-bound time, and
   the Θ(3^n) DPhyp reference on the same graph — the wall the
   convolution is supposed to break.  Every dpconv plan is
   Plan_check-verified and the C_out bound is checked against the
   DPhyp optimum (a certified bound below the optimum is a correctness
   bug); the bench aborts on the first violation, so a green run
   really measured valid plans.

   Both documents carry the clique points under identical summary
   keys (<clique>_cmax_ms): dpconv the C_max times, dpconv.dphyp the
   DPhyp times.  A gate of R between them fails unless dpconv is at
   least 1/R times faster than DPhyp (committed full mode: 10x, the
   2^n / 3^n gap opened up at clique-16; quick mode: 2x on the small
   cliques). *)

module Opt = Core.Optimizer
module Dc = Core.Dpconv
module G = Hypergraph.Graph

(* Random simple graph at ~60% of the complete graph's edges — dense
   enough for the adaptive conv tier's gate, irregular enough to
   exercise the card/connectivity tables off the clique fast path. *)
let dense_random ~seed n =
  let extra = n * (n - 1) / 2 * 6 / 10 in
  Workloads.Random_graphs.simple ~seed ~n ~extra_edges:extra ()

(* (name, summary key, graph); a [None] key is reported, not gated. *)
let graphs ~quick =
  [
    ("clique-10", Some "clique10", Workloads.Shapes.clique 10);
    ("clique-12", Some "clique12", Workloads.Shapes.clique 12);
    ("dense-12", None, dense_random ~seed:421 12);
  ]
  @
  if quick then []
  else
    [
      ("clique-14", Some "clique14", Workloads.Shapes.clique 14);
      ("clique-16", Some "clique16", Workloads.Shapes.clique 16);
      ("dense-14", None, dense_random ~seed:422 14);
      ("dense-16", None, dense_random ~seed:423 16);
    ]

(* Every time is a best-of-three warm sample ([Bench_util.time_best]) on
   both sides of the gate, so one slow sample cannot pass or fail it. *)
let point (name, _, g) =
  let cmax_ms, cmax_o =
    Bench_util.time_best (fun () -> Dc.solve ~objective:Dc.Cmax g)
  in
  ignore (Bench_util.checked_plan ~what:(name ^ "/cmax") g cmax_o.Dc.plan);
  let cout_ms, cout_o =
    Bench_util.time_best (fun () -> Dc.solve ~objective:Dc.Cout_bound g)
  in
  let cout_plan =
    Bench_util.checked_plan ~what:(name ^ "/cout-bound") g cout_o.Dc.plan
  in
  let dphyp_ms, dphyp_r =
    Bench_util.time_best (fun () -> Opt.run Opt.Dphyp g)
  in
  let exact =
    match dphyp_r.Opt.plan with
    | Some p -> p.Plans.Plan.cost
    | None -> Bench_util.die "%s: dphyp returned no plan" name
  in
  let bound = cout_o.Dc.bound in
  if bound < exact *. (1.0 -. 1e-9) then
    Bench_util.die "%s: certified C_out bound %.6g below the DPhyp optimum %.6g"
      name bound exact;
  let witness = cout_plan.Plans.Plan.cost in
  if Float.abs (bound -. witness) > 1e-9 *. Float.max (Float.abs bound) 1.0 then
    Bench_util.die "%s: bound %.6g is not the witness plan's cost %.6g" name
      bound witness;
  Bench_util.
    [
      ("graph", Str name);
      ("relations", Int (G.num_nodes g));
      ("edges", Int (G.num_edges g));
      ("cmax_ms", Num cmax_ms);
      ("cmax", Num cmax_o.Dc.cmax);
      ("feasible", Int cmax_o.Dc.feasible);
      ("cout_ms", Num cout_ms);
      ("bound", Num bound);
      ("dphyp_ms", Num dphyp_ms);
      ("exact_cost", Num exact);
      ("speedup_cmax", Num (dphyp_ms /. cmax_ms));
      ("bound_vs_exact", Num (bound /. exact));
    ]

let run ~quick ~path =
  let graphs = graphs ~quick in
  let points = Bench_util.measure_points point graphs in
  let summary field =
    List.concat
      (List.map2
         (fun (_, key, _) p ->
           match key with
           | Some k -> [ (k ^ "_cmax_ms", List.assoc field p) ]
           | None -> [])
         graphs points)
  in
  Bench_util.write_ledger ~quick ~path ~suite:"dpconv" ~points (summary "cmax_ms");
  Bench_util.write_ledger ~quick ~path ~suite:"dpconv.dphyp" ~points
    (summary "dphyp_ms")
