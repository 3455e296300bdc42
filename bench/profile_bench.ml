(* Per-experiment pipeline profiles (suite profile, PROFILE_smoke.json).

   Runs a small, fixed set of representative experiments through
   Driver.Pipeline with an Obs collector and writes one obs_profile/v1
   document: for each experiment the full span tree (per pipeline
   phase, per adaptive tier, per IDP round), the counter snapshot with
   budget context, the DP-table occupancy and the winning tier — each
   profile object exactly as Obs.Metrics.to_json renders it for
   `joinopt`.  This is the machine-readable counterpart of `joinopt
   explain`; future perf PRs justify their numbers by diffing these
   profiles. *)

module Opt = Core.Optimizer

(* Three profiles spanning the observability surface: a plain exact
   DPhyp run (single enumerate span), an unbudgeted adaptive run
   (exact tier span), and the clique-20 ladder descent (failed tier
   attempts + per-round IDP spans under a budget). *)
let experiments =
  [
    ( "fig6b_star16_s0_dphyp",
      List.hd (Workloads.Splits.star_based 16),
      Opt.Dphyp,
      None );
    ("cycle9_adaptive_unbudgeted", Workloads.Shapes.cycle 9, Opt.Adaptive, None);
    ( "clique20_adaptive_budget50k",
      Workloads.Shapes.clique 20,
      Opt.Adaptive,
      Some 50_000 );
  ]

let profile (name, g, algo, budget) =
  let obs = Obs.Span.create () in
  match Driver.Pipeline.optimize_graph ~obs ~algo ?budget g with
  | Ok { Driver.Pipeline.profile = Some p; _ } ->
      Printf.printf "  %-28s %8s ms  %2d spans  tier=%s\n%!" name
        (Bench_util.fmt_ms (p.Obs.Metrics.total_s *. 1e3))
        (List.length p.Obs.Metrics.spans)
        (Option.value ~default:"-" p.Obs.Metrics.winning_tier);
      Obs.Metrics.to_json ~name p
  | Ok _ -> Bench_util.die "%s: pipeline returned no profile" name
  | Error m -> Bench_util.die "%s: %s" name m

let run ~quick ~path =
  Bench_util.write path
    (Bench_util.document
       [
         ("schema", {|"obs_profile/v1"|});
         ("mode", if quick then {|"quick"|} else {|"full"|});
         ( "profiles",
           "[\n" ^ String.concat ",\n" (List.map profile experiments) ^ "\n  ]" );
       ])
