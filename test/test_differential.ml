(* Cross-algorithm differential harness.

   Every exact enumerator must agree on the optimal cost over random
   graphs; IDP-k must reproduce the exact optimum at k >= n, stay
   valid (Plan_check) and no better than the optimum below it; the
   adaptive ladder must be exact when unbudgeted, deterministic under
   a budget, and degrade to a non-exact tier on queries whose exact
   enumeration blows the budget.  DPhyp's ccp_emitted counter is
   pinned to the brute-force csg-cmp-pair count so the hot-path
   indexes cannot silently change what is enumerated. *)

module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module Opt = Core.Optimizer
module D = Driver.Pipeline

let check = Alcotest.(check bool)

let cost_of name (r : Opt.result) =
  match r.plan with
  | Some p -> p.Plans.Plan.cost
  | None -> Alcotest.failf "%s: no plan" name

let close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let random_simple seed =
  Workloads.Random_graphs.simple ~seed ~n:(4 + (seed mod 4))
    ~extra_edges:(seed mod 3) ()

let random_hyper seed =
  Workloads.Random_graphs.hyper ~seed ~n:(5 + (seed mod 3)) ~extra_edges:2
    ~hyperedges:2 ~max_hypernode:3 ()

(* The deterministic differential suite: named shapes, hyperedge split
   families, and a band of random hypergraphs. *)
let suite_graphs () =
  [
    ("chain7", Workloads.Shapes.chain 7);
    ("cycle8", Workloads.Shapes.cycle 8);
    ("star6", Workloads.Shapes.star 6);
    ("clique6", Workloads.Shapes.clique 6);
    ("grid2x4", Workloads.Shapes.grid ~rows:2 ~cols:4 ());
  ]
  @ List.mapi
      (fun i g -> (Printf.sprintf "cycle6-split%d" i, g))
      (Workloads.Splits.cycle_based 6)
  @ List.init 10 (fun i ->
        (Printf.sprintf "random-hyper-%d" i, random_hyper (i * 977)))

(* ---------- exact algorithms agree ---------- *)

let exact_algos = [ Opt.Dphyp; Opt.Dpsize; Opt.Dpsub; Opt.Topdown; Opt.Tdpart ]

(* On disagreement, fail with the aligned structural diff of the two
   plans — which shared subtree first went a different way is far more
   actionable than two scalar costs. *)
let agree_on name g algos =
  let ref_r = Opt.run Opt.Dphyp g in
  let reference = cost_of name ref_r in
  List.for_all
    (fun algo ->
      let r = Opt.run algo g in
      let c = cost_of (name ^ "/" ^ Opt.name algo) r in
      close reference c
      ||
      match (ref_r.plan, r.plan) with
      | Some p1, Some p2 ->
          let names i = (G.relation g i).G.name in
          QCheck.Test.fail_report
            (Printf.sprintf "%s: dphyp cost %.6g vs %s cost %.6g\n%s" name
               reference (Opt.name algo) c
               (Plans.Plan_diff.report ~names
                  ~labels:("dphyp", Opt.name algo)
                  p1 p2))
      | _ -> false)
    algos

let prop_exact_agree_simple =
  QCheck.Test.make
    ~name:"all exact algorithms (incl. dpccp) agree on random simple graphs"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_simple seed in
      agree_on "simple" g (Opt.Dpccp :: exact_algos))

let prop_exact_agree_hyper =
  QCheck.Test.make ~name:"all exact algorithms agree on random hypergraphs"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed -> agree_on "hyper" (random_hyper seed) exact_algos)

(* ---------- IDP ---------- *)

let prop_idp_exact_when_k_covers =
  QCheck.Test.make ~name:"idp with k >= n reproduces the exact optimum"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_hyper seed in
      let exact = cost_of "dphyp" (Opt.run Opt.Dphyp g) in
      let idp = cost_of "idp" (Opt.run ~k:(G.num_nodes g) Opt.Idp g) in
      close exact idp)

let prop_idp_valid_and_no_better =
  QCheck.Test.make
    ~name:"idp k=3 plans pass Plan_check and cost >= exact optimum" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_hyper seed in
      let exact = cost_of "dphyp" (Opt.run Opt.Dphyp g) in
      match (Opt.run ~k:3 Opt.Idp g).plan with
      | None -> QCheck.Test.fail_report "idp k=3 found no plan"
      | Some p ->
          Plans.Plan_check.check g p = []
          && Ns.equal p.Plans.Plan.set (G.all_nodes g)
          && p.Plans.Plan.cost >= exact -. 1e-9 *. exact)

(* ---------- ccp_emitted pinned to brute force ---------- *)

let prop_ccp_counter_pinned =
  QCheck.Test.make
    ~name:"dphyp ccp_emitted = brute-force csg-cmp-pair count" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_hyper seed in
      let r = Opt.run Opt.Dphyp g in
      r.Opt.counters.Core.Counters.ccp_emitted
      = Hypergraph.Csg_enum.count_csg_cmp_pairs g)

(* ---------- adaptive ---------- *)

let prop_adaptive_unlimited_exact =
  QCheck.Test.make
    ~name:"adaptive without budget = exact dphyp on random hypergraphs"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_hyper seed in
      let r = Opt.run Opt.Adaptive g in
      r.Opt.tier = Some Core.Adaptive.Exact
      && close (cost_of "adaptive" r) (cost_of "dphyp" (Opt.run Opt.Dphyp g)))

let test_adaptive_suite_unlimited () =
  List.iter
    (fun (name, g) ->
      let r = Opt.run Opt.Adaptive g in
      check (name ^ ": tier exact") true (r.Opt.tier = Some Core.Adaptive.Exact);
      Alcotest.(check (float 1e-6))
        (name ^ ": adaptive cost = dphyp cost")
        (cost_of name (Opt.run Opt.Dphyp g))
        (cost_of name r))
    (suite_graphs ())

let test_adaptive_clique20_budget () =
  let g = Workloads.Shapes.clique 20 in
  let budget = 50_000 in
  let r = Opt.run ~budget Opt.Adaptive g in
  (match r.Opt.tier with
  | None -> Alcotest.fail "adaptive reported no tier"
  | Some Core.Adaptive.Exact ->
      Alcotest.fail "exact cannot fit a 20-clique in a 50k-pair budget"
  | Some _ -> ());
  match r.Opt.plan with
  | None -> Alcotest.fail "adaptive returned no plan"
  | Some p ->
      check "covers all 20 relations" true
        (Ns.equal p.Plans.Plan.set (G.all_nodes g));
      (match Plans.Plan_check.check g p with
      | [] -> ()
      | issues ->
          Alcotest.failf "plan check: %s"
            (String.concat "; "
               (List.map Plans.Plan_check.issue_to_string issues)));
      (* determinism: the budget is counted in pairs, not seconds, so a
         rerun reproduces the tier, the work and the plan exactly *)
      let r' = Opt.run ~budget Opt.Adaptive g in
      check "same tier on rerun" true (r'.Opt.tier = r.Opt.tier);
      Alcotest.(check int)
        "same work on rerun"
        r.Opt.counters.Core.Counters.pairs_considered
        r'.Opt.counters.Core.Counters.pairs_considered;
      Alcotest.(check string)
        "same plan on rerun"
        (Plans.Plan.to_string p)
        (Plans.Plan.to_string (Option.get r'.Opt.plan))

let test_adaptive_budget_one_falls_to_goo () =
  (* a budget too small for any DP rung must still produce a plan *)
  let g = Workloads.Shapes.clique 8 in
  let r = Opt.run ~budget:1 Opt.Adaptive g in
  check "greedy tier" true (r.Opt.tier = Some Core.Adaptive.Greedy);
  match r.Opt.plan with
  | None -> Alcotest.fail "goo fallback returned no plan"
  | Some p ->
      check "covers all" true (Ns.equal p.Plans.Plan.set (G.all_nodes g))

(* ---------- budget on plain algorithms ---------- *)

let test_budget_exhausted_raises () =
  let g = Workloads.Shapes.clique 10 in
  List.iter
    (fun algo ->
      Alcotest.check_raises
        (Opt.name algo ^ " raises on exhausted budget")
        Core.Counters.Budget_exhausted
        (fun () -> ignore (Opt.run ~budget:50 algo g)))
    [ Opt.Dphyp; Opt.Dpsize; Opt.Dpsub; Opt.Goo; Opt.Topdown; Opt.Tdpart;
      Opt.Idp ]

let test_budget_large_enough_is_silent () =
  let g = Workloads.Shapes.chain 6 in
  let unbudgeted = cost_of "dphyp" (Opt.run Opt.Dphyp g) in
  let budgeted = cost_of "dphyp-budget" (Opt.run ~budget:1_000_000 Opt.Dphyp g) in
  Alcotest.(check (float 1e-9)) "same cost under generous budget" unbudgeted
    budgeted

(* ---------- Invalid_argument contracts of Optimizer.run ---------- *)

let test_dpccp_rejects_complex_edges () =
  let g =
    Workloads.Random_graphs.hyper ~seed:7 ~n:6 ~extra_edges:1 ~hyperedges:2
      ~max_hypernode:3 ()
  in
  check "graph really has hyperedges" true (G.has_hyperedges g);
  Alcotest.check_raises "dpccp refuses hypergraphs"
    (Invalid_argument "Dpccp: graph has hyperedges; use Dphyp")
    (fun () -> ignore (Opt.run Opt.Dpccp g))

let test_filter_rejected_by_non_filter_algos () =
  let g = Workloads.Shapes.chain 4 in
  List.iter
    (fun algo ->
      Alcotest.check_raises
        (Opt.name algo ^ " rejects filter")
        (Invalid_argument
           (Printf.sprintf
              "Optimizer.run: %s does not support a validity filter"
              (Opt.name algo)))
        (fun () -> ignore (Opt.run ~filter:(fun _ _ _ -> true) algo g)))
    (List.filter (fun a -> not (Opt.supports_filter a)) Opt.all)

(* ---------- non-inner regression across conflict modes ---------- *)

let modes =
  [
    ("tes-literal", D.Tes_literal);
    ("tes-conservative", D.Tes_conservative);
    ("tes-generate-and-test", D.Tes_generate_and_test);
    ("cdc", D.Cdc);
  ]

let test_noninner_all_modes () =
  let trees =
    [
      ("star-antijoins", Workloads.Noninner.star_antijoins ~n_rel:6 ~k:3 ());
      ("cycle-outerjoins", Workloads.Noninner.cycle_outerjoins ~n_rel:6 ~k:2 ());
    ]
  in
  List.iter
    (fun (tname, tree) ->
      List.iter
        (fun (mname, mode) ->
          match D.optimize_tree ~mode tree with
          | Error m -> Alcotest.failf "%s under %s: %s" tname mname m
          | Ok r ->
              (match Plans.Plan_check.check r.D.graph r.D.plan with
              | [] -> ()
              | issues ->
                  Alcotest.failf "%s under %s: %s" tname mname
                    (String.concat "; "
                       (List.map Plans.Plan_check.issue_to_string issues)));
              (match D.verify_on_data r with
              | Ok _ -> ()
              | Error m ->
                  Alcotest.failf "%s under %s: bags differ: %s" tname mname m))
        modes)
    trees

let test_adaptive_through_pipeline () =
  (* filter-free modes accept the adaptive algorithm and report a
     tier; filter modes refuse it with a readable error *)
  let tree = Workloads.Noninner.star_antijoins ~n_rel:6 ~k:2 () in
  (match D.optimize_tree ~algo:Opt.Adaptive tree with
  | Error m -> Alcotest.failf "adaptive via pipeline: %s" m
  | Ok r -> (
      check "tier reported" true (r.D.tier <> None);
      match D.verify_on_data r with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "adaptive plan execution: %s" m));
  match D.optimize_tree ~mode:D.Cdc ~algo:Opt.Adaptive tree with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cdc mode must refuse a filterless algorithm"

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_pipeline_budget_error () =
  let g = Workloads.Shapes.clique 12 in
  match D.optimize_graph ~budget:100 g with
  | Error m -> check "mentions the budget" true (contains_sub m "budget")
  | Ok _ -> Alcotest.fail "a 100-pair budget cannot optimize a 12-clique"

(* ---------- dpconv: subset-convolution DP ---------- *)

module Dc = Core.Dpconv

(* Catalogs selective enough that intermediates can shrink, which
   gives the C_max search more than one candidate between card(V) and
   the greedy bracket. *)
let selective seed =
  { Workloads.Shapes.seed; min_card = 10.; max_card = 1e5; min_sel = 1e-4;
    max_sel = 0.05 }

(* Simple inner-join graphs n <= 10 — the band where the brute-force
   C_max reference below is affordable. *)
let dpconv_suite () =
  [
    (* the greedy plan is optimal and the only candidate: no search pass *)
    ("clique3-one-candidate", Workloads.Shapes.clique ~p:(selective 0) 3);
    (* every search pass infeasible: the bracket's top is the answer *)
    ("clique5-all-infeasible", Workloads.Shapes.clique ~p:(selective 2) 5);
    (* the search ends on an infeasible pass and keeps an earlier one *)
    ("clique5-ends-infeasible", Workloads.Shapes.clique ~p:(selective 94) 5);
    (* a longer search: feasible, infeasible, infeasible, feasible *)
    ("clique5-fiif", Workloads.Shapes.clique ~p:(selective 90) 5);
    (* the smallest graph the search runs on *)
    ("two-relations", Workloads.Shapes.chain ~p:(selective 7) 2);
    ("chain7", Workloads.Shapes.chain 7);
    ("cycle8", Workloads.Shapes.cycle 8);
    ("star6", Workloads.Shapes.star 6);
    ("star8", Workloads.Shapes.star 8);
    ("clique6", Workloads.Shapes.clique 6);
    ("clique8", Workloads.Shapes.clique 8);
    ("clique10", Workloads.Shapes.clique 10);
    ("grid2x4", Workloads.Shapes.grid ~rows:2 ~cols:4 ());
    ("grid2x5", Workloads.Shapes.grid ~rows:2 ~cols:5 ());
  ]

(* Brute-force C_max reference: plain memoized min-max recursion over
   all partitions into connected halves — the O(3^n) definition the
   convolution is supposed to reproduce. *)
let brute_cmax g =
  let module H = Hashtbl in
  let cards : (Ns.t, float) H.t = H.create 256 in
  let rec card s =
    match H.find_opt cards s with
    | Some c -> c
    | None ->
        let c =
          if Ns.is_singleton s then G.cardinality g (Ns.min_elt s)
          else
            let v = Ns.min_elt s in
            let rest = Ns.remove v s in
            let sel =
              Array.fold_left
                (fun acc (e : Hypergraph.Hyperedge.t) ->
                  let a = Ns.min_elt e.u and b = Ns.min_elt e.v in
                  if
                    (a = v && Ns.mem b rest) || (b = v && Ns.mem a rest)
                  then acc *. e.sel
                  else acc)
                1.0 (G.edges g)
            in
            card rest *. G.cardinality g v *. sel
        in
        H.add cards s c;
        c
  in
  let connected s =
    Ns.is_singleton s
    ||
    let rec grow reach =
      let next =
        Ns.inter (G.simple_neighborhood g reach) (Ns.diff s reach)
      in
      if Ns.is_empty next then reach else grow (Ns.union reach next)
    in
    Ns.equal (grow (Ns.min_set s)) s
  in
  let memo : (Ns.t, float) H.t = H.create 256 in
  let rec cmax s =
    if Ns.is_singleton s then 0.
    else
      match H.find_opt memo s with
      | Some v -> v
      | None ->
          let best = ref infinity in
          let v = Ns.min_set s in
          Nodeset.Subset_enum.iter_all (Ns.without_min s) (fun rest ->
              let t = Ns.union v rest in
              let other = Ns.diff s t in
              if
                (not (Ns.is_empty other))
                && connected t && connected other
              then
                let c =
                  Float.max (card s) (Float.max (cmax t) (cmax other))
                in
                if c < !best then best := c);
          H.add memo s !best;
          !best
  in
  cmax (G.all_nodes g)

let rec max_join_card (p : Plans.Plan.t) =
  match p.Plans.Plan.tree with
  | Plans.Plan.Scan _ | Plans.Plan.Compound _ -> 0.
  | Plans.Plan.Join j ->
      Float.max p.Plans.Plan.card
        (Float.max (max_join_card j.Plans.Plan.left)
           (max_join_card j.Plans.Plan.right))

let check_dpconv_cmax name g =
  let reference = brute_cmax g in
  let o = Dc.solve ~objective:Dc.Cmax g in
  match o.Dc.plan with
  | None -> Alcotest.failf "%s: dpconv cmax found no plan" name
  | Some p ->
      (match Plans.Plan_check.check g p with
      | [] -> ()
      | issues ->
          Alcotest.failf "%s: dpconv plan invalid: %s" name
            (String.concat "; "
               (List.map Plans.Plan_check.issue_to_string issues)));
      check (name ^ ": covers all relations") true
        (Ns.equal p.Plans.Plan.set (G.all_nodes g));
      if not (close o.Dc.cmax reference) then
        Alcotest.failf "%s: dpconv cmax %.17g <> brute force %.17g" name
          o.Dc.cmax reference;
      (* the witness really achieves the optimum it claims *)
      check (name ^ ": witness within cmax") true
        (max_join_card p <= o.Dc.cmax *. (1. +. 1e-9))

let test_dpconv_cmax_suite () =
  List.iter (fun (name, g) -> check_dpconv_cmax name g) (dpconv_suite ())

let prop_dpconv_cmax_random =
  QCheck.Test.make
    ~name:"dpconv cmax = brute-force min-max on random simple graphs"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_simple seed in
      check_dpconv_cmax "random-simple" g;
      true)

(* The C_out bound must sit above the exact optimum (it is the cost of
   a real plan) and be Plan_check-valid; disagreements render through
   the aligned plan diff. *)
let check_dpconv_cout name g =
  let exact_r = Opt.run Opt.Dphyp g in
  let exact = cost_of (name ^ "/dphyp") exact_r in
  let o = Dc.solve ~objective:Dc.Cout_bound g in
  match o.Dc.plan with
  | None -> Alcotest.failf "%s: dpconv cout-bound found no plan" name
  | Some p ->
      (match Plans.Plan_check.check g p with
      | [] -> ()
      | issues ->
          Alcotest.failf "%s: dpconv cout plan invalid: %s" name
            (String.concat "; "
               (List.map Plans.Plan_check.issue_to_string issues)));
      check (name ^ ": bound is the plan's cost") true
        (close o.Dc.bound p.Plans.Plan.cost);
      if o.Dc.bound < exact -. (1e-9 *. Float.max 1.0 exact) then
        let names i = (G.relation g i).G.name in
        Alcotest.failf
          "%s: dpconv cout bound %.6g below exact optimum %.6g\n%s" name
          o.Dc.bound exact
          (Plans.Plan_diff.report ~names
             ~labels:("dpconv", "dphyp")
             p
             (Option.get exact_r.Opt.plan))

let test_dpconv_cout_suite () =
  List.iter (fun (name, g) -> check_dpconv_cout name g) (dpconv_suite ())

let prop_dpconv_cout_random =
  QCheck.Test.make
    ~name:"dpconv cout bound >= exact optimum on random simple graphs"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_simple seed in
      check_dpconv_cout "random-simple" g;
      true)

(* The adaptive dense tier: the convolution runs first on dense simple
   graphs and its certified bound prunes the exact rung without
   changing its answer. *)
let test_dpconv_adaptive_dense () =
  let g = Workloads.Shapes.clique 12 in
  let exact = cost_of "clique12/dphyp" (Opt.run Opt.Dphyp g) in
  let r = Opt.run Opt.Adaptive g in
  Alcotest.(check (float 1e-9))
    "adaptive (bound-pruned exact) = plain exact" exact
    (cost_of "clique12/adaptive" r);
  check "conv tier attempted" true
    (List.exists
       (fun (a : Core.Adaptive.attempt) ->
         a.Core.Adaptive.tier = Core.Adaptive.Conv)
       r.Opt.attempts);
  check "exact tier won" true (r.Opt.tier = Some Core.Adaptive.Exact);
  (* sparse graph in the same size band: the density gate must not
     fire and the ladder is exactly what it was before *)
  let sparse = Workloads.Shapes.cycle 12 in
  let r2 = Opt.run Opt.Adaptive sparse in
  check "no conv tier on sparse graph" true
    (List.for_all
       (fun (a : Core.Adaptive.attempt) ->
         a.Core.Adaptive.tier <> Core.Adaptive.Conv)
       r2.Opt.attempts)

(* Budget large enough for the convolution but not for the pruned
   exact rung: the certified dpconv plan answers instead of degrading
   to IDP. *)
let test_dpconv_adaptive_budget () =
  let g = Workloads.Shapes.clique 12 in
  let exact = cost_of "clique12/dphyp" (Opt.run Opt.Dphyp g) in
  let r = Opt.run ~budget:5_000 Opt.Adaptive g in
  check "conv tier won under budget" true
    (r.Opt.tier = Some Core.Adaptive.Conv);
  let cost = cost_of "clique12/adaptive-budget" r in
  check "certified plan bounds the optimum" true
    (cost >= exact -. (1e-9 *. exact));
  match r.Opt.plan with
  | None -> Alcotest.fail "no plan from the conv tier"
  | Some p -> check "conv plan valid" true (Plans.Plan_check.check g p = [])

let test_dpconv_rejects_unsupported () =
  let hyper =
    Workloads.Random_graphs.hyper ~seed:7 ~n:6 ~extra_edges:1 ~hyperedges:2
      ~max_hypernode:3 ()
  in
  check "hyper not supported" false (Dc.supported hyper);
  Alcotest.check_raises "dpconv refuses hypergraphs"
    (Invalid_argument
       (Printf.sprintf
          "Dpconv: unsupported graph (needs 1..%d relations, simple edges, \
           inner operators, no free variables); use dphyp"
          Dc.max_relations))
    (fun () -> ignore (Dc.solve hyper));
  check "clique-19 over the cap" false
    (Dc.supported (Workloads.Shapes.clique 19))

let test_dpconv_disconnected () =
  let rels = Array.init 3 (fun i -> G.base_rel ~card:100. (Printf.sprintf "R%d" i)) in
  let g = G.make rels [| Hypergraph.Hyperedge.simple ~sel:0.1 ~id:0 0 1 |] in
  List.iter
    (fun objective ->
      let o = Dc.solve ~objective g in
      check "no plan" true (o.Dc.plan = None);
      check "cmax is nan" true (Float.is_nan o.Dc.cmax);
      check "bound is nan" true (Float.is_nan o.Dc.bound);
      Alcotest.(check int) "nothing feasible" 0 o.Dc.feasible)
    [ Dc.Cmax; Dc.Cout_bound ]

(* The exported transforms against their O(3^n) definitions, on random
   int arrays of every width the test can afford. *)
let naive_over_subsets ~bits term =
  Array.init (1 lsl bits) (fun s ->
      let acc = ref 0 and t = ref s in
      let continue = ref true in
      while !continue do
        acc := !acc + term s !t;
        if !t = 0 then continue := false else t := (!t - 1) land s
      done;
      !acc)

let popcount x =
  let rec go x c = if x = 0 then c else go (x land (x - 1)) (c + 1) in
  go x 0

let prop_dpconv_transforms =
  QCheck.Test.make ~name:"dpconv transforms = O(3^n) definitions" ~count:40
    QCheck.(pair (int_bound 10) (int_bound 1_000_000))
    (fun (bits, seed) ->
      let rng = Random.State.make [| seed |] in
      let random () =
        Array.init (1 lsl bits) (fun _ -> Random.State.int rng 201 - 100)
      in
      let f = random () and g = random () in
      let zeta = Array.copy f in
      Dc.zeta_in_place ~bits zeta;
      let mobius = Array.copy f in
      Dc.mobius_in_place ~bits mobius;
      zeta = naive_over_subsets ~bits (fun _ t -> f.(t))
      && mobius
         = naive_over_subsets ~bits (fun s t ->
               if popcount (s lxor t) land 1 = 0 then f.(t) else - f.(t))
      && Dc.subset_convolve ~bits f g
         = naive_over_subsets ~bits (fun s t -> f.(t) * g.(s lxor t)))

(* Adaptive skips its exact rung when the conv plan's C_out meets the
   C_max lower bound.  That argument holds for C_out itself only, not
   for any model that happens to carry its name. *)
let test_adaptive_cout_by_identity () =
  let g = Workloads.Shapes.clique 12 in
  let renamed = { Costing.Cost_model.c_mm with name = "cout" } in
  let plain = Opt.run ~model:Costing.Cost_model.c_mm Opt.Adaptive g in
  let r = Opt.run ~model:renamed Opt.Adaptive g in
  check "renamed c_mm takes c_mm's tier" true (r.Opt.tier = plain.Opt.tier);
  Alcotest.(check (float 0.)) "renamed c_mm finds c_mm's cost"
    (cost_of "clique12/c_mm" plain) (cost_of "clique12/renamed" r);
  (* half of C_out under C_out's name: the conv plan meets C_max/2
     easily, yet the exact rung must still run and find the optimum *)
  let half =
    { Costing.Cost_model.name = "cout";
      op_cost = (fun _ ~left_card:_ ~right_card:_ ~out_card -> 0.5 *. out_card) }
  in
  let exact = cost_of "clique12/half-dphyp" (Opt.run ~model:half Opt.Dphyp g) in
  let r = Opt.run ~model:half Opt.Adaptive g in
  check "half C_out runs the exact rung" true
    (r.Opt.tier = Some Core.Adaptive.Exact);
  Alcotest.(check (float 0.)) "half C_out finds the optimum" exact
    (cost_of "clique12/half-adaptive" r)

(* ---------- parallel enumeration is invisible ---------- *)

(* Whatever the shape, the size (n <= 14) and the jobs count, the
   parallel enumerator must hand back plans identical in cost and
   structure to the sequential run — the deterministic tie-break makes
   this exact string equality, not just cost agreement. *)

let plan_fingerprint (r : D.result) =
  Printf.sprintf "%s|%.17g|%.17g"
    (Plans.Plan.to_string r.D.plan)
    r.D.plan.Plans.Plan.cost r.D.plan.Plans.Plan.card

let prop_parallel_identical_shapes =
  QCheck.Test.make
    ~name:"parallel dphyp jobs in {1,2,4} = sequential (random shapes)"
    ~count:24
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g =
        match seed mod 4 with
        | 0 -> Workloads.Shapes.chain (4 + (seed mod 11)) (* n <= 14 *)
        | 1 -> Workloads.Shapes.cycle (4 + (seed mod 11))
        | 2 -> Workloads.Shapes.star (4 + (seed mod 11))
        | _ -> Workloads.Shapes.clique (4 + (seed mod 7)) (* n <= 10 *)
      in
      match D.optimize_graph g with
      | Error m -> QCheck.Test.fail_report m
      | Ok seq ->
          List.for_all
            (fun jobs ->
              match D.optimize_graph ~jobs g with
              | Ok par -> plan_fingerprint par = plan_fingerprint seq
              | Error m -> QCheck.Test.fail_report m)
            [ 1; 2; 4 ])

let prop_parallel_identical_modes =
  QCheck.Test.make
    ~name:"parallel dphyp identical under every conflict mode" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let tree =
        if seed mod 2 = 0 then
          Workloads.Noninner.star_antijoins
            ~n_rel:(5 + (seed mod 3))
            ~k:(1 + (seed mod 3))
            ()
        else
          Workloads.Noninner.cycle_outerjoins
            ~n_rel:(5 + (seed mod 3))
            ~k:(1 + (seed mod 2))
            ()
      in
      List.for_all
        (fun (mname, mode) ->
          match D.optimize_tree ~mode tree with
          | Error m -> QCheck.Test.fail_report (mname ^ ": " ^ m)
          | Ok seq ->
              List.for_all
                (fun jobs ->
                  match D.optimize_tree ~mode ~jobs tree with
                  | Ok par -> plan_fingerprint par = plan_fingerprint seq
                  | Error m ->
                      QCheck.Test.fail_report
                        (Printf.sprintf "%s/jobs%d: %s" mname jobs m))
                [ 2; 4 ])
        modes)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "differential"
    [
      ( "exact-agreement",
        [
          q prop_exact_agree_simple;
          q prop_exact_agree_hyper;
          q prop_ccp_counter_pinned;
        ] );
      ( "idp",
        [
          q prop_idp_exact_when_k_covers;
          q prop_idp_valid_and_no_better;
        ] );
      ( "adaptive",
        [
          q prop_adaptive_unlimited_exact;
          Alcotest.test_case "suite graphs, unlimited budget" `Quick
            test_adaptive_suite_unlimited;
          Alcotest.test_case "clique-20 under 50k budget" `Quick
            test_adaptive_clique20_budget;
          Alcotest.test_case "budget 1 falls to goo" `Quick
            test_adaptive_budget_one_falls_to_goo;
        ] );
      ( "budget",
        [
          Alcotest.test_case "plain algorithms raise" `Quick
            test_budget_exhausted_raises;
          Alcotest.test_case "generous budget is invisible" `Quick
            test_budget_large_enough_is_silent;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "dpccp rejects complex edges" `Quick
            test_dpccp_rejects_complex_edges;
          Alcotest.test_case "filter rejected by non-filter algorithms" `Quick
            test_filter_rejected_by_non_filter_algos;
        ] );
      ( "non-inner",
        [
          Alcotest.test_case "all conflict modes execute correctly" `Quick
            test_noninner_all_modes;
          Alcotest.test_case "adaptive through the pipeline" `Quick
            test_adaptive_through_pipeline;
          Alcotest.test_case "budget exhaustion is an Error" `Quick
            test_pipeline_budget_error;
        ] );
      ( "dpconv",
        [
          Alcotest.test_case "cmax = brute force on suite graphs" `Quick
            test_dpconv_cmax_suite;
          q prop_dpconv_cmax_random;
          Alcotest.test_case "cout bound >= exact on suite graphs" `Quick
            test_dpconv_cout_suite;
          q prop_dpconv_cout_random;
          Alcotest.test_case "adaptive dense tier prunes, answer unchanged"
            `Quick test_dpconv_adaptive_dense;
          Alcotest.test_case "adaptive conv tier answers under budget" `Quick
            test_dpconv_adaptive_budget;
          Alcotest.test_case "rejects unsupported graphs" `Quick
            test_dpconv_rejects_unsupported;
          Alcotest.test_case "disconnected graph has no plan" `Quick
            test_dpconv_disconnected;
          q prop_dpconv_transforms;
          Alcotest.test_case "tight shortcut only for c_out itself" `Quick
            test_adaptive_cout_by_identity;
        ] );
      ( "parallel",
        [
          q prop_parallel_identical_shapes;
          q prop_parallel_identical_modes;
        ] );
    ]
