(* Budgeted adaptive optimization (suite adaptive, BENCH_adaptive.json;
   experiment xadaptive prints the same points as a table).

   One point per (graph, pair budget): which rung of the adaptive
   ladder (exact DPhyp → IDP-k → GOO) answered, how long it took, how
   much of the budget it spent, and — where exact DP is cheap enough
   to run as a reference — how far the returned plan is from the true
   optimum.  The headline point is the 20-relation clique under a
   50k-pair budget: exact enumeration needs millions of pairs there,
   so the run must finish on a fallback tier; the suite aborts if it
   answers "exact" (budget not enforced). *)

module Opt = Core.Optimizer
module G = Hypergraph.Graph

let graphs ~quick =
  let p ?budget ?(exact_ref = false) name graph =
    (name, graph, budget, exact_ref)
  in
  [
    p "cycle-9" (Workloads.Shapes.cycle 9) ~exact_ref:true;
    p "clique-10" (Workloads.Shapes.clique 10) ~budget:10_000 ~exact_ref:true;
    p "star-12" (Workloads.Shapes.star 12) ~budget:20_000 ~exact_ref:true;
    p "cycle-16" (Workloads.Shapes.cycle 16) ~budget:20_000;
    p "clique-20" (Workloads.Shapes.clique 20) ~budget:50_000;
  ]
  @
  if quick then []
  else
    [
      p "chain-30" (Workloads.Shapes.chain 30) ~budget:50_000;
      p "cycle16-s0"
        (List.hd (Workloads.Splits.cycle_based 16))
        ~budget:20_000;
    ]

(* [exact_ref]: run unbudgeted DPhyp as a cost reference. *)
let point (name, g, budget, exact_ref) =
  let ms, result =
    Bench_util.time_ms (fun () -> Opt.run ?budget Opt.Adaptive g)
  in
  let cost =
    match result.Opt.plan with Some p -> p.Plans.Plan.cost | None -> nan
  in
  let cost_vs_exact =
    match if exact_ref then (Opt.run Opt.Dphyp g).Opt.plan else None with
    | Some p -> Bench_util.Num (cost /. p.Plans.Plan.cost)
    | None -> Bench_util.Null
  in
  Bench_util.
    [
      ("graph", Str name);
      ("relations", Int (G.num_nodes g));
      ("budget", match budget with Some b -> Int b | None -> Null);
      ("tier", Str (tier result));
      ("ms", Num ms);
      ("pairs", Int result.Opt.counters.Core.Counters.pairs_considered);
      ("cost", Num cost);
      ("cost_vs_exact", cost_vs_exact);
    ]

let run ~quick ~path =
  let points = Bench_util.measure_points point (graphs ~quick) in
  let tier =
    List.assoc "tier"
      (List.find
         (fun p -> List.assoc "graph" p = Bench_util.Str "clique-20")
         points)
  in
  if tier = Bench_util.Str "exact" then
    Bench_util.die "adaptive: clique-20 under a 50k-pair budget answered exact";
  Bench_util.write_ledger ~quick ~path ~suite:"adaptive" ~points
    [ ("clique20_budget50k_tier", tier) ]
