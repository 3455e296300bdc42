(* Large-query tier (suite large, BENCH_large.json; experiment xlarge
   prints the same points as a table).

   One point per 100-1000 relation graph pushed through the adaptive
   optimizer, which routes everything wider than
   Node_set.small_capacity to the partitioned tier (greedy clustering
   -> per-block exact DPhyp -> IDP-k stitch).  Every returned plan is
   Plan_check-verified and the bench aborts on the first invalid one —
   a large-tier plan that references a node twice or drops a relation
   must never make it into a committed baseline.  The headline point
   is the 128-relation star: it exceeds the historic single-word
   ceiling by more than 2x and its hub-and-spokes shape is the worst
   case for the clustering (satellites can only ever merge with the
   hub), so it exercises the IDP stitch absorbing singletons.  C_out
   overflows double at these widths; a non-finite cost is written as
   null. *)

module Opt = Core.Optimizer
module G = Hypergraph.Graph

let graphs ~quick =
  [
    ("star-127", lazy (Workloads.Shapes.star 127));
    ("chain-256", lazy (Workloads.Shapes.chain 256));
    ("snowflake-100", lazy (Workloads.Shapes.snowflake_n 100));
  ]
  @
  if quick then []
  else
    [
      ("chain-512", lazy (Workloads.Shapes.chain 512));
      ("grid-16x16", lazy (Workloads.Shapes.grid ~rows:16 ~cols:16 ()));
      ("snowflake-341", lazy (Workloads.Shapes.snowflake_n 341));
      ("snowflake-991", lazy (Workloads.Shapes.snowflake_n 991));
    ]

let point (name, g) =
  let g = Lazy.force g in
  let ms, result = Bench_util.time_ms (fun () -> Opt.run Opt.Adaptive g) in
  let plan = Bench_util.checked_plan ~what:name g result.Opt.plan in
  Bench_util.
    [
      ("graph", Str name);
      ("relations", Int (G.num_nodes g));
      ("edges", Int (Array.length (G.edges g)));
      ("tier", Str (tier result));
      ("ms", Num ms);
      ("pairs", Int result.Opt.counters.Core.Counters.pairs_considered);
      ("cost", Num plan.Plans.Plan.cost);
    ]

let run ~quick ~path =
  let graphs = graphs ~quick in
  let points = Bench_util.measure_points point graphs in
  Bench_util.write_ledger ~quick ~path ~suite:"large" ~points
    (List.map2
       (fun (name, _) p ->
         ( String.map (function '-' -> '_' | c -> c) name ^ "_ms",
           List.assoc "ms" p ))
       graphs points)
