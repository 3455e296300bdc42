(* Tests for the enumeration algorithms.

   The two central theorems being checked:
   1. DPhyp emits exactly the csg-cmp-pairs of the hypergraph, each
      exactly once, in an order where sub-pairs precede super-pairs
      (Section 2.2's requirement for dynamic programming).
   2. All exact algorithms (DPhyp, DPsize, DPsub, DPccp, top-down
      memoization) agree on the optimal plan cost. *)

module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge
module Opt = Core.Optimizer

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ns = Ns.of_list

let canon pairs =
  List.sort_uniq compare
    (List.map (fun (a, b) -> (Ns.to_int a, Ns.to_int b)) pairs)

let cost_of (r : Opt.result) =
  match r.plan with Some p -> p.Plans.Plan.cost | None -> nan

let graphs_under_test () =
  let p = Workloads.Shapes.default_params in
  [
    ("chain4", Workloads.Shapes.chain ~p 4);
    ("chain7", Workloads.Shapes.chain ~p 7);
    ("cycle5", Workloads.Shapes.cycle ~p 5);
    ("cycle8", Workloads.Shapes.cycle ~p 8);
    ("star4", Workloads.Shapes.star ~p 4);
    ("star6", Workloads.Shapes.star ~p 6);
    ("clique5", Workloads.Shapes.clique ~p 5);
    ("grid2x3", Workloads.Shapes.grid ~p ~rows:2 ~cols:3 ());
  ]
  @ List.mapi
      (fun i g -> (Printf.sprintf "cycle8-split%d" i, g))
      (Workloads.Splits.cycle_based ~p 8)
  @ List.mapi
      (fun i g -> (Printf.sprintf "star6-split%d" i, g))
      (Workloads.Splits.star_based ~p 6)
  @ List.init 8 (fun seed ->
        ( Printf.sprintf "rand-hyper-%d" seed,
          Workloads.Random_graphs.hyper ~seed ~n:7 ~extra_edges:3 ~hyperedges:2
            ~max_hypernode:3 () ))

(* ---------- 1. emission exactness ---------- *)

let test_dphyp_emits_exactly_ccps () =
  List.iter
    (fun (name, g) ->
      let trace = Core.Dphyp.enumerate_ccps g in
      let brute = Hypergraph.Csg_enum.csg_cmp_pairs g in
      check_int (name ^ ": emission count = brute force")
        (List.length brute) (List.length trace);
      check (name ^ ": no duplicates") true
        (List.length (canon trace) = List.length trace);
      check (name ^ ": same set") true (canon trace = canon brute))
    (graphs_under_test ())

let test_dphyp_canonical_min_order () =
  List.iter
    (fun (name, g) ->
      let trace = Core.Dphyp.enumerate_ccps g in
      check (name ^ ": min(S1) < min(S2) for every emission") true
        (List.for_all (fun (s1, s2) -> Ns.min_elt s1 < Ns.min_elt s2) trace))
    (graphs_under_test ())

let test_dphyp_dp_order () =
  (* Before emitting (S1,S2), all (S1',S2') with S1'⊂S1, S2'⊂S2 must
     already be out; equivalently, every strict sub-pair of an emitted
     pair that IS a ccp appears earlier in the trace. *)
  List.iter
    (fun (name, g) ->
      let trace = Core.Dphyp.enumerate_ccps g in
      let seen = Hashtbl.create 256 in
      let ok = ref true in
      List.iter
        (fun (s1, s2) ->
          Hashtbl.iter
            (fun _ () -> ())
            seen;
          (* check no later pair is a strict sub-pair of an earlier one *)
          Hashtbl.iter
            (fun (t1, t2) () ->
              let t1 = Ns.unsafe_of_int t1 and t2 = Ns.unsafe_of_int t2 in
              if
                Ns.strict_subset s1 t1 && Ns.subset s2 t2
                || (Ns.subset s1 t1 && Ns.strict_subset s2 t2)
              then ok := false)
            seen;
          Hashtbl.replace seen (Ns.to_int s1, Ns.to_int s2) ())
        trace;
      check (name ^ ": subsets before supersets") true !ok)
    (graphs_under_test ())

(* ---------- 2. cross-algorithm agreement ---------- *)

let agree name g algos =
  let costs = List.map (fun a -> (a, cost_of (Opt.run a g))) algos in
  match costs with
  | [] -> ()
  | (_, c0) :: rest ->
      List.iter
        (fun (a, c) ->
          check
            (Printf.sprintf "%s: %s cost matches dphyp" name (Opt.name a))
            true
            (Float.abs (c -. c0) <= 1e-9 *. Float.max 1.0 (Float.abs c0)))
        rest

let test_all_algorithms_agree () =
  List.iter
    (fun (name, g) ->
      agree name g [ Opt.Dphyp; Opt.Dpsize; Opt.Dpsub; Opt.Topdown; Opt.Tdpart ];
      if not (G.has_hyperedges g) then agree name g [ Opt.Dphyp; Opt.Dpccp ])
    (graphs_under_test ())

let test_agreement_under_cmm () =
  let model = Costing.Cost_model.c_mm in
  List.iter
    (fun (name, g) ->
      let c1 = cost_of (Opt.run ~model Opt.Dphyp g) in
      let c2 = cost_of (Opt.run ~model Opt.Dpsub g) in
      check (name ^ ": cmm agreement") true
        (Float.abs (c1 -. c2) <= 1e-9 *. Float.max 1.0 c1))
    (graphs_under_test ())

let test_dpccp_matches_dphyp_trace () =
  List.iter
    (fun (name, g) ->
      if not (G.has_hyperedges g) then begin
        let t1 = canon (Core.Dphyp.enumerate_ccps g) in
        let t2 = canon (Core.Dpccp.enumerate_ccps g) in
        check (name ^ ": dpccp = dphyp pairs") true (t1 = t2)
      end)
    (graphs_under_test ())

let test_dpccp_rejects_hypergraphs () =
  let g = List.assoc "rand-hyper-0" (graphs_under_test ()) in
  Alcotest.check_raises "dpccp on hypergraph"
    (Invalid_argument "Dpccp: graph has hyperedges; use Dphyp") (fun () ->
      ignore (Core.Dpccp.solve g))

(* ---------- golden trace: the paper's Figure 2/3 example ---------- *)

let fig2 () =
  G.make
    (Array.init 6 (fun i -> G.base_rel (Printf.sprintf "R%d" (i + 1))))
    [|
      He.simple ~id:0 0 1;
      He.simple ~id:1 1 2;
      He.simple ~id:2 3 4;
      He.simple ~id:3 4 5;
      He.make ~id:4 (ns [ 0; 1; 2 ]) (ns [ 3; 4; 5 ]);
    |]

let test_fig3_trace_golden () =
  (* the nine csg-cmp-pairs of the paper's running example, in DPhyp
     emission order (regression-pinned; matches the Figure 3 walk:
     complements around R5/R4 first, then R2/R1, then the hyperedge
     pair joining the halves) *)
  let expected =
    [
      ([ 4 ], [ 5 ]);
      ([ 3 ], [ 4 ]);
      ([ 3 ], [ 4; 5 ]);
      ([ 3; 4 ], [ 5 ]);
      ([ 1 ], [ 2 ]);
      ([ 0 ], [ 1 ]);
      ([ 0 ], [ 1; 2 ]);
      ([ 0; 1 ], [ 2 ]);
      ([ 0; 1; 2 ], [ 3; 4; 5 ]);
    ]
  in
  let got =
    List.map
      (fun (a, b) -> (Ns.to_list a, Ns.to_list b))
      (Core.Dphyp.enumerate_ccps (fig2 ()))
  in
  Alcotest.(check (list (pair (list int) (list int)))) "figure 3 trace"
    expected got

(* ---------- counters ---------- *)

let test_counters_dphyp_tight () =
  (* on every graph, DPhyp's emitted ccp count equals the brute-force
     count, and its considered pairs exceed it only by the failed
     seed/extension candidates *)
  List.iter
    (fun (name, g) ->
      let r = Opt.run Opt.Dphyp g in
      let brute = Hypergraph.Csg_enum.count_csg_cmp_pairs g in
      check_int (name ^ ": ccp counter") brute
        r.counters.Core.Counters.ccp_emitted;
      check (name ^ ": considered >= emitted") true
        (r.counters.Core.Counters.pairs_considered
        >= r.counters.Core.Counters.ccp_emitted))
    (graphs_under_test ())

let test_counters_baselines_waste () =
  (* the paper's core observation: DPsize/DPsub examine far more
     candidate pairs than there are ccps on sparse graphs *)
  let g = Workloads.Shapes.chain 8 in
  let hyp = Opt.run Opt.Dphyp g in
  let size = Opt.run Opt.Dpsize g in
  let sub = Opt.run Opt.Dpsub g in
  let ccp = hyp.counters.Core.Counters.ccp_emitted in
  check "dpsize wastes" true
    (size.counters.Core.Counters.pairs_considered > 2 * ccp);
  check "dpsub wastes" true
    (sub.counters.Core.Counters.pairs_considered > 2 * ccp)

let test_dp_entries_is_csg_count () =
  List.iter
    (fun (name, g) ->
      let r = Opt.run Opt.Dphyp g in
      check_int
        (name ^ ": dp entries = connected subgraphs")
        (Hypergraph.Csg_enum.count_connected_subgraphs g)
        r.dp_entries)
    (graphs_under_test ())

(* ---------- plans are well-formed ---------- *)

let test_plan_covers_all_relations () =
  List.iter
    (fun (name, g) ->
      match (Opt.run Opt.Dphyp g).plan with
      | Some p ->
          check (name ^ ": plan covers V") true
            (Ns.equal p.Plans.Plan.set (G.all_nodes g));
          check_int (name ^ ": n-1 joins") (G.num_nodes g - 1)
            (Plans.Plan.num_joins p)
      | None -> Alcotest.failf "%s: no plan" name)
    (graphs_under_test ())

let test_plans_structurally_valid () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun algo ->
          match (Opt.run algo g).plan with
          | Some p -> (
              match Plans.Plan_check.check g p with
              | [] -> ()
              | issues ->
                  Alcotest.failf "%s/%s: %s" name (Opt.name algo)
                    (String.concat "; "
                       (List.map Plans.Plan_check.issue_to_string issues)))
          | None -> Alcotest.failf "%s/%s: no plan" name (Opt.name algo))
        (Opt.Dphyp :: Opt.Dpsize :: Opt.Dpsub :: Opt.Goo :: Opt.Topdown
        :: Opt.Tdpart
        :: (if G.has_hyperedges g then [] else [ Opt.Dpccp ])))
    (graphs_under_test ())

let test_no_cross_products () =
  (* every join node of the optimal plan must apply at least one edge *)
  let rec no_cross (p : Plans.Plan.t) =
    match p.tree with
    | Plans.Plan.Scan _ | Plans.Plan.Compound _ -> true
    | Plans.Plan.Join j ->
        j.edge_ids <> [] && no_cross j.left && no_cross j.right
  in
  List.iter
    (fun (name, g) ->
      match (Opt.run Opt.Dphyp g).plan with
      | Some p -> check (name ^ ": no cross products") true (no_cross p)
      | None -> Alcotest.failf "%s: no plan" name)
    (graphs_under_test ())

let test_tdpart_beats_naive () =
  (* the point of partition search: near-ccp candidate counts where
     naive memoization tests exponentially many splits *)
  let g = Workloads.Shapes.chain 9 in
  let tdp = Opt.run Opt.Tdpart g in
  let naive = Opt.run Opt.Topdown g in
  check "tdpart considers far fewer pairs" true
    (tdp.counters.Core.Counters.pairs_considered * 5
    < naive.counters.Core.Counters.pairs_considered)

(* ---------- budget ---------- *)

let test_budget_zero () =
  (* a zero budget is legal and means "no pairs at all": the very
     first tick_pair must raise *)
  Alcotest.check_raises "budget 0 raises on first pair"
    Core.Counters.Budget_exhausted (fun () ->
      ignore (Opt.run ~budget:0 Opt.Dphyp (Workloads.Shapes.chain 4)))

let test_budget_exactly_sufficient () =
  (* the budget is inclusive: b pairs under ~budget:b must not raise,
     and the run is indistinguishable from the unbudgeted one *)
  List.iter
    (fun (name, g) ->
      let free = Opt.run Opt.Dphyp g in
      let p = free.counters.Core.Counters.pairs_considered in
      let capped = Opt.run ~budget:p Opt.Dphyp g in
      check_int (name ^ ": same pairs under exact budget") p
        capped.counters.Core.Counters.pairs_considered;
      check (name ^ ": same cost under exact budget") true
        (Float.equal (cost_of free) (cost_of capped));
      check (name ^ ": headroom fully spent")
        true
        (Core.Counters.remaining capped.counters = Some 0);
      (* one pair less must blow up *)
      if p > 0 then
        Alcotest.check_raises
          (name ^ ": budget p-1 raises")
          Core.Counters.Budget_exhausted
          (fun () -> ignore (Opt.run ~budget:(p - 1) Opt.Dphyp g)))
    [
      ("chain5", Workloads.Shapes.chain 5);
      ("cycle6", Workloads.Shapes.cycle 6);
      ("star5", Workloads.Shapes.star 5);
    ]

let test_reset_preserves_limit () =
  let c = Core.Counters.create ~budget:7 () in
  for _ = 1 to 5 do
    Core.Counters.tick_pair c
  done;
  check_int "spent before reset" 5 c.Core.Counters.pairs_considered;
  check "remaining before reset" true (Core.Counters.remaining c = Some 2);
  Core.Counters.reset c;
  check_int "zeroed" 0 c.Core.Counters.pairs_considered;
  check "budget survives reset" true (Core.Counters.budget c = Some 7);
  check "headroom restored" true (Core.Counters.remaining c = Some 7);
  (* the limit is still enforced after reset *)
  Alcotest.check_raises "still enforced" Core.Counters.Budget_exhausted
    (fun () ->
      for _ = 1 to 8 do
        Core.Counters.tick_pair c
      done);
  (* unlimited counters stay unlimited *)
  let u = Core.Counters.create () in
  Core.Counters.reset u;
  check "unlimited has no budget" true (Core.Counters.budget u = None);
  check "unlimited has no headroom figure" true
    (Core.Counters.remaining u = None)

let test_counters_pp_budget () =
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let unl = Format.asprintf "%a" Core.Counters.pp (Core.Counters.create ()) in
  check "pp says unlimited" true (contains unl "budget=unlimited");
  let c = Core.Counters.create ~budget:100 () in
  Core.Counters.tick_pair c;
  let s = Format.asprintf "%a" Core.Counters.pp c in
  check "pp prints the limit" true (contains s "budget=100");
  check "pp prints the headroom" true (contains s "remaining=99")

let test_null_sink_counters_identical () =
  (* observability must not perturb enumeration: a run under a
     Null-sink collector produces byte-identical counters, DP-table
     occupancy and plan cost to an un-observed run *)
  let snapshot (r : Opt.result) =
    ( r.counters.Core.Counters.pairs_considered,
      r.counters.Core.Counters.ccp_emitted,
      r.counters.Core.Counters.cost_calls,
      r.counters.Core.Counters.filter_rejected,
      r.counters.Core.Counters.neighborhood_calls,
      r.dp_entries,
      cost_of r )
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (algo, budget) ->
          let plain = Opt.run ?budget algo g in
          let obs = Obs.Span.create () in
          let traced = Opt.run ~obs ?budget algo g in
          check
            (Printf.sprintf "%s/%s: counters unperturbed by obs" name
               (Opt.name algo))
            true
            (snapshot plain = snapshot traced))
        [
          (Opt.Dphyp, None);
          (Opt.Idp, None);
          (Opt.Adaptive, None);
          (Opt.Adaptive, Some 50);
        ])
    [
      ("chain6", Workloads.Shapes.chain 6);
      ("cycle7", Workloads.Shapes.cycle 7);
      ("star6-split0", List.hd (Workloads.Splits.star_based 6));
    ]

(* ---------- edge cases ---------- *)

let test_disconnected_query_cross_products () =
  (* two components: §2.1's selectivity-1 glue edge makes the query
     optimizable, and the plan contains exactly one cross-product-ish
     join applying the glue edge *)
  let b = Hypergraph.Builder.create () in
  let a0 = Hypergraph.Builder.add_relation ~card:10.0 b "a0" in
  let a1 = Hypergraph.Builder.add_relation ~card:20.0 b "a1" in
  let b0 = Hypergraph.Builder.add_relation ~card:30.0 b "b0" in
  let b1 = Hypergraph.Builder.add_relation ~card:40.0 b "b1" in
  Hypergraph.Builder.add_predicate ~sel:0.1 b (Relalg.Predicate.eq_cols a0 "x" a1 "x");
  Hypergraph.Builder.add_predicate ~sel:0.1 b (Relalg.Predicate.eq_cols b0 "x" b1 "x");
  let g = Hypergraph.Builder.build b in
  check_int "glue edge added" 3 (G.num_edges g);
  List.iter
    (fun algo ->
      match (Opt.run algo g).plan with
      | Some p ->
          check
            (Core.Optimizer.name algo ^ " covers all")
            true
            (Ns.equal p.Plans.Plan.set (G.all_nodes g));
          Alcotest.(check (list string)) "structurally valid" []
            (List.map Plans.Plan_check.issue_to_string (Plans.Plan_check.check g p))
      | None -> Alcotest.failf "%s: no plan" (Core.Optimizer.name algo))
    Opt.[ Dphyp; Dpsize; Dpsub; Tdpart ];
  (* and all agree *)
  agree "disconnected" g [ Opt.Dphyp; Opt.Dpsize; Opt.Dpsub; Opt.Tdpart ]

let test_three_components () =
  let b = Hypergraph.Builder.create () in
  for i = 0 to 5 do
    ignore (Hypergraph.Builder.add_relation ~card:(float_of_int (10 * (i + 1))) b
              (Printf.sprintf "t%d" i))
  done;
  Hypergraph.Builder.add_predicate b (Relalg.Predicate.eq_cols 0 "x" 1 "x");
  Hypergraph.Builder.add_predicate b (Relalg.Predicate.eq_cols 2 "x" 3 "x");
  Hypergraph.Builder.add_predicate b (Relalg.Predicate.eq_cols 4 "x" 5 "x");
  let g = Hypergraph.Builder.build b in
  check "connected after glue" true (Hypergraph.Connectivity.is_connected_graph g);
  check "optimizes" true ((Opt.run Opt.Dphyp g).plan <> None)

let test_large_chain_near_node_limit () =
  (* high node indices: exercises the top bits of the native-int sets *)
  let g = Workloads.Shapes.chain 60 in
  match (Opt.run Opt.Dphyp g).plan with
  | Some p ->
      check "covers 60 relations" true (Ns.cardinal p.Plans.Plan.set = 60);
      check_int "59 joins" 59 (Plans.Plan.num_joins p)
  | None -> Alcotest.fail "no plan for chain-60"

let test_unit_cardinalities () =
  let g =
    G.make
      [| G.base_rel ~card:1.0 "a"; G.base_rel ~card:1.0 "b" |]
      [| He.simple ~sel:1.0 ~id:0 0 1 |]
  in
  match (Opt.run Opt.Dphyp g).plan with
  | Some p -> Alcotest.(check (float 1e-9)) "card floor" 1.0 p.Plans.Plan.card
  | None -> Alcotest.fail "no plan"

(* ---------- plan sampling ---------- *)

let test_sampled_plans_never_beat_optimum () =
  List.iter
    (fun (name, g) ->
      if G.num_nodes g <= 8 then begin
        let opt = cost_of (Opt.run Opt.Dphyp g) in
        List.iteri
          (fun i c ->
            check
              (Printf.sprintf "%s sample %d: optimum <= sample" name i)
              true
              (opt <= c +. 1e-9))
          (Plan_sample.sample_costs ~seeds:(List.init 8 Fun.id) g)
      end)
    (graphs_under_test ())

let test_sampled_plans_structurally_valid () =
  List.iter
    (fun (name, g) ->
      if G.num_nodes g <= 8 then
        List.iter
          (fun seed ->
            match Plan_sample.random_plan ~seed g with
            | None -> Alcotest.failf "%s: no sampled plan" name
            | Some p -> (
                check (name ^ ": covers all") true
                  (Ns.equal p.Plans.Plan.set (G.all_nodes g));
                match Plans.Plan_check.check g p with
                | [] -> ()
                | issues ->
                    Alcotest.failf "%s seed %d: %s" name seed
                      (String.concat "; "
                         (List.map Plans.Plan_check.issue_to_string issues))))
          [ 0; 1; 2 ])
    (graphs_under_test ())

let test_sampling_diversity () =
  (* different seeds should find different plan shapes on a clique *)
  let g = Workloads.Shapes.clique 5 in
  let plans =
    List.filter_map
      (fun seed -> Plan_sample.random_plan ~seed g)
      (List.init 12 Fun.id)
  in
  let distinct =
    List.sort_uniq compare (List.map Plans.Plan.to_string plans)
  in
  check "several distinct shapes" true (List.length distinct >= 4)

(* ---------- GOO ---------- *)

let test_goo_valid_but_suboptimal () =
  List.iter
    (fun (name, g) ->
      let goo = Opt.run Opt.Goo g in
      let opt = Opt.run Opt.Dphyp g in
      match goo.plan, opt.plan with
      | Some gp, Some op ->
          check (name ^ ": goo covers V") true
            (Ns.equal gp.Plans.Plan.set (G.all_nodes g));
          check (name ^ ": goo >= optimal") true
            (gp.Plans.Plan.cost >= op.Plans.Plan.cost -. 1e-9)
      | _ -> Alcotest.failf "%s: missing plan" name)
    (graphs_under_test ())

let test_goo_cross_product_applies_covered_edges () =
  (* No pair of components is joinable once R2-R3 is merged: the
     hyperedge ({R0},{R1,R2}) never connects two of them.  GOO falls
     back to cross products, and the one that first covers the
     hyperedge must apply it — later joins treat it as applied. *)
  let g =
    G.make
      [|
        G.base_rel ~card:10.0 "R0";
        G.base_rel ~card:20.0 "R1";
        G.base_rel ~card:3000.0 "R2";
        G.base_rel ~card:4000.0 "R3";
      |]
      [| He.simple ~sel:0.01 ~id:0 2 3; He.make ~sel:0.5 ~id:1 (ns [ 0 ]) (ns [ 1; 2 ]) |]
  in
  match Core.Goo.solve g with
  | None -> Alcotest.fail "goo always answers"
  | Some p ->
      Alcotest.(check (list string))
        "plan check" []
        (List.map Plans.Plan_check.issue_to_string (Plans.Plan_check.check g p))

let test_goo_strictly_worse_somewhere () =
  (* greedy must actually lose on at least one of these graphs,
     otherwise the benchmark X4 is vacuous *)
  let worse =
    List.exists
      (fun (_, g) ->
        match (Opt.run Opt.Goo g).plan, (Opt.run Opt.Dphyp g).plan with
        | Some gp, Some op -> gp.Plans.Plan.cost > op.Plans.Plan.cost *. 1.0001
        | _ -> false)
      (graphs_under_test ())
  in
  check "goo suboptimal somewhere" true worse

(* ---------- filters ---------- *)

let test_filter_false_blocks_everything () =
  let g = Workloads.Shapes.chain 4 in
  let r = Opt.run ~filter:(fun _ _ _ -> false) Opt.Dphyp g in
  check "no plan under false filter" true (r.plan = None);
  check "rejections counted" true
    (r.counters.Core.Counters.filter_rejected > 0)

let test_filter_unsupported () =
  let g = Workloads.Shapes.chain 4 in
  Alcotest.check_raises "goo rejects filter"
    (Invalid_argument "Optimizer.run: goo does not support a validity filter")
    (fun () -> ignore (Opt.run ~filter:(fun _ _ _ -> true) Opt.Goo g))

let test_filter_trivial_preserves_result () =
  List.iter
    (fun (name, g) ->
      let c1 = cost_of (Opt.run Opt.Dphyp g) in
      let c2 = cost_of (Opt.run ~filter:(fun _ _ _ -> true) Opt.Dphyp g) in
      check (name ^ ": true filter is identity") true
        (Float.abs (c1 -. c2) <= 1e-9 *. Float.max 1.0 c1))
    (graphs_under_test ())

(* ---------- dependent operators (Section 5.6) ---------- *)

let test_dependent_switch () =
  (* T1 is a table function over T0: the optimizer must emit a
     dependent join with T0 on the left *)
  let g =
    G.make
      [|
        G.base_rel ~card:100.0 "T0";
        G.base_rel ~card:10.0 ~free:(Ns.singleton 0) "f";
      |]
      [| He.simple ~pred:(Relalg.Predicate.eq_cols 0 "x" 1 "x") ~id:0 0 1 |]
  in
  match (Opt.run Opt.Dphyp g).plan with
  | Some { tree = Plans.Plan.Join j; _ } ->
      check "dependent" true j.op.Relalg.Operator.dependent;
      check "table function on the right" true
        (Ns.equal j.right.Plans.Plan.set (Ns.singleton 1))
  | _ -> Alcotest.fail "expected a join plan"

let test_dependent_no_valid_orientation () =
  (* two table functions depending on each other: no plan exists *)
  let g =
    G.make
      [|
        G.base_rel ~card:100.0 ~free:(Ns.singleton 1) "f0";
        G.base_rel ~card:10.0 ~free:(Ns.singleton 0) "f1";
      |]
      [| He.simple ~pred:(Relalg.Predicate.eq_cols 0 "x" 1 "x") ~id:0 0 1 |]
  in
  check "cyclic dependence has no plan" true ((Opt.run Opt.Dphyp g).plan = None)

(* ---------- Emit operator resolution ---------- *)

let test_applicable_op () =
  (* two relations joined by two parallel edges: all inner conjoin into
     a plain join costed both ways; one non-inner edge dictates the
     operator and its argument order; two non-inner edges are
     ambiguous and yield nothing *)
  let pair ops =
    let g =
      G.make
        (Array.init 2 (fun i -> G.base_rel (Printf.sprintf "R%d" i)))
        (Array.of_list
           (List.mapi
              (fun id (op, forward) ->
                if forward then He.make ~op ~id (ns [ 0 ]) (ns [ 1 ])
                else He.make ~op ~id (ns [ 1 ]) (ns [ 0 ]))
              ops))
    in
    Core.Emit.candidates ~model:Costing.Cost_model.c_out
      ~counters:(Core.Counters.create ()) g (Plans.Plan.scan g 0)
      (Plans.Plan.scan g 1)
  in
  let shape (p : Plans.Plan.t) =
    match p.tree with
    | Plans.Plan.Join j -> (j.op, Ns.to_list j.left.set, j.edge_ids)
    | _ -> Alcotest.fail "expected a join"
  in
  let join = Relalg.Operator.join and louter = Relalg.Operator.left_outer in
  check "all inner" true
    (List.map shape (pair [ (join, true); (join, true) ])
    = [ (join, [ 0 ], [ 0; 1 ]); (join, [ 1 ], [ 0; 1 ]) ]);
  check "the louter edge decides" true
    (List.map shape (pair [ (join, true); (louter, false) ])
    = [ (louter, [ 1 ], [ 0; 1 ]) ]);
  check "two non-inner ambiguous" true
    (pair [ (louter, true); (Relalg.Operator.left_anti, true) ] = [])

(* ---------- properties over random graphs ---------- *)

let prop_random_agreement =
  QCheck.Test.make ~name:"dphyp = dpsub = dpsize on random hypergraphs"
    ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g =
        Workloads.Random_graphs.hyper ~seed ~n:6 ~extra_edges:2 ~hyperedges:2
          ~max_hypernode:3 ()
      in
      let c1 = cost_of (Opt.run Opt.Dphyp g) in
      let c2 = cost_of (Opt.run Opt.Dpsub g) in
      let c3 = cost_of (Opt.run Opt.Dpsize g) in
      Float.abs (c1 -. c2) <= 1e-9 *. c1 && Float.abs (c1 -. c3) <= 1e-9 *. c1)

let prop_random_emission =
  QCheck.Test.make ~name:"dphyp emission = brute force on random hypergraphs"
    ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g =
        Workloads.Random_graphs.hyper ~seed ~n:6 ~extra_edges:2 ~hyperedges:2
          ~max_hypernode:3 ()
      in
      canon (Core.Dphyp.enumerate_ccps g)
      = canon (Hypergraph.Csg_enum.csg_cmp_pairs g))

(* ---------- applied edges are derived state ---------- *)

(* Random hypergraphs with everything the pending-predicate rule has to
   cope with: generalized edges (a [w] node), non-inner operators and
   relations with free variables.  Some of these graphs have no valid
   plan at all; the properties below only look at what the DP tables
   hold. *)
let rich_graph seed =
  let base =
    Workloads.Random_graphs.hyper ~seed ~n:7 ~extra_edges:3 ~hyperedges:2
      ~max_hypernode:3 ()
  in
  let rng = Random.State.make [| seed |] in
  let n = G.num_nodes base in
  let pick s = List.nth (Ns.to_list s) (Random.State.int rng (Ns.cardinal s)) in
  let ops =
    Relalg.Operator.
      [| join; join; join; left_outer; left_anti; left_semi; full_outer; left_nest |]
  in
  let edges =
    Array.map
      (fun (e : He.t) ->
        let rest = Ns.diff (G.all_nodes base) (He.covers e) in
        let w =
          if (not (Ns.is_empty rest)) && Random.State.int rng 4 = 0 then
            Ns.singleton (pick rest)
          else Ns.empty
        in
        let op =
          if Random.State.int rng 3 = 0 then
            ops.(Random.State.int rng (Array.length ops))
          else Relalg.Operator.join
        in
        He.make ~id:e.id ~w ~op ~pred:e.pred ~sel:e.sel e.u e.v)
      (G.edges base)
  in
  let rels =
    Array.init n (fun i ->
        let r = G.relation base i in
        if Random.State.int rng 6 = 0 then
          { r with G.free = Ns.singleton (pick (Ns.remove i (G.all_nodes base))) }
        else r)
  in
  G.make rels edges

let derived_graphs () =
  List.concat_map
    (fun k ->
      [
        Workloads.Noninner.star_antijoins ~n_rel:7 ~k ();
        Workloads.Noninner.cycle_outerjoins ~n_rel:7 ~k ();
      ])
    [ 0; 2; 4 ]
  |> List.map (fun tree ->
         Conflicts.Derive.hypergraph
           (Conflicts.Analysis.analyze ~conservative:true tree))

(* The edges a plan has applied, recomputed by walking its tree: the
   edge ids of every join node, duplicates kept (a compound leaf's
   sub-plan lives over a finer graph and applied nothing of this
   one). *)
let applied_of (p : Plans.Plan.t) =
  let rec go acc (p : Plans.Plan.t) =
    match p.tree with
    | Plans.Plan.Scan _ | Plans.Plan.Compound _ -> acc
    | Plans.Plan.Join j -> go (go (j.edge_ids @ acc) j.left) j.right
  in
  List.sort compare (go [] p)

(* The derived set: every edge whose relations the plan covers. *)
let covered_edges g (p : Plans.Plan.t) =
  List.filter
    (fun i -> Ns.subset (G.edge_cover g i) p.set)
    (List.init (G.num_edges g) Fun.id)

let applied_is_derived g p = applied_of p = covered_edges g p

let table_applied_is_derived g dp =
  let ok = ref true in
  Plans.Dp_table.iter (fun p -> if not (applied_is_derived g p) then ok := false) dp;
  !ok

let rec subtrees_applied_is_derived g (p : Plans.Plan.t) =
  applied_is_derived g p
  &&
  match p.tree with
  | Plans.Plan.Scan _ | Plans.Plan.Compound _ -> true
  | Plans.Plan.Join j ->
      subtrees_applied_is_derived g j.left
      && subtrees_applied_is_derived g j.right

(* IDP and the partitioned tier contract the graph between rounds, so
   only their first table (built over the input graph) is comparable
   with the input's edge covers; the flattened result is, node by
   node. *)
let first_table_and_plan solve =
  let tables = ref [] in
  let plan =
    Plans.Dp_table.with_create_observer
      (fun t -> tables := t :: !tables)
      solve
  in
  (List.nth_opt (List.rev !tables) 0, plan)

let applied_derived_everywhere g =
  let dphyp, _ = Core.Dphyp.solve_with_table g in
  let dpsize, _ = Core.Dpsize.solve_with_table g in
  let layered solve =
    match first_table_and_plan solve with
    | first, plan ->
        Option.fold ~none:true ~some:(table_applied_is_derived g) first
        && Option.fold ~none:true ~some:(subtrees_applied_is_derived g) plan
  in
  table_applied_is_derived g dphyp
  && table_applied_is_derived g dpsize
  && layered (fun () -> Core.Idp.solve ~k:3 g)
  && layered (fun () -> Core.Partition.solve ~block_size:3 ~k:3 g)

let prop_applied_is_derived =
  QCheck.Test.make
    ~name:"applied = edges covered by the plan's set (DPhyp/DPsize/IDP/partition)"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed -> applied_derived_everywhere (rich_graph seed))

let test_applied_derived_noninner () =
  List.iteri
    (fun i g ->
      check (Printf.sprintf "derived graph %d" i) true (applied_derived_everywhere g))
    (derived_graphs ())

(* ---------- emission core vs. the list-based reference ---------- *)

(* The resolver the emission core replaced, kept as a naive
   reference: connecting edges as a list, an O(E) scan for pending
   edges against the applied sets recomputed from the plan trees, and
   every valid argument order built with [Plan.join]. *)
let reference_candidates ~model g (p1 : Plans.Plan.t) (p2 : Plans.Plan.t) =
  let module Op = Relalg.Operator in
  match G.connecting_edges g p1.set p2.set with
  | [] -> []
  | connecting -> (
      let both = Ns.union p1.set p2.set in
      let a1 = applied_of p1 and a2 = applied_of p2 in
      let pending = ref [] in
      for i = 0 to G.num_edges g - 1 do
        if
          Ns.subset (G.edge_cover g i) both
          && (not (List.mem i a1))
          && (not (List.mem i a2))
          && not (List.exists (fun ((c : He.t), _) -> c.id = i) connecting)
        then pending := G.edge g i :: !pending
      done;
      let pending = !pending in
      let non_inner =
        List.filter (fun ((e : He.t), _) -> e.op.Op.kind <> Op.Inner) connecting
      in
      if List.exists (fun (e : He.t) -> e.op.Op.kind <> Op.Inner) pending then []
      else
        let sel =
          Costing.Cardinality.selectivity_product connecting
          *. List.fold_left (fun s (e : He.t) -> s *. e.sel) 1.0 pending
        in
        let edge_ids =
          List.map (fun ((e : He.t), _) -> e.id) connecting
          @ List.rev_map (fun (e : He.t) -> e.id) pending
        in
        let build op (l : Plans.Plan.t) (r : Plans.Plan.t) =
          let out (p : Plans.Plan.t) = Ns.diff (G.free_of g p.set) p.set in
          if Ns.intersects (out l) r.set then None
          else if Ns.intersects (out r) l.set then
            if op.Op.kind = Op.Full_outer then None
            else Some (Plans.Plan.join model ~op:(Op.to_dependent op) ~edge_ids ~sel l r)
          else Some (Plans.Plan.join model ~op ~edge_ids ~sel l r)
        in
        match non_inner with
        | [] -> List.filter_map Fun.id [ build Op.join p1 p2; build Op.join p2 p1 ]
        | [ (e, o) ] ->
            let l, r = if o = He.Forward then (p1, p2) else (p2, p1) in
            List.filter_map Fun.id
              (build e.op l r
              :: (if Op.commutative e.op then [ build e.op r l ] else []))
        | _ :: _ :: _ -> [])

(* Bit-level plan identity: operators (dependent switch included),
   sets, edge ids, and the IEEE bits of sel, card and cost. *)
let rec same_bits (a : Plans.Plan.t) (b : Plans.Plan.t) =
  let bits = Int64.bits_of_float in
  Ns.equal a.set b.set
  && bits a.card = bits b.card
  && bits a.cost = bits b.cost
  &&
  match a.tree, b.tree with
  | Plans.Plan.Scan i, Plans.Plan.Scan k -> i = k
  | Plans.Plan.Join x, Plans.Plan.Join y ->
      Relalg.Operator.equal x.op y.op
      && x.edge_ids = y.edge_ids
      && bits x.sel = bits y.sel
      && same_bits x.left y.left && same_bits x.right y.right
  | _ -> false

(* Every ordered pair of disjoint DP entries — csg-cmp-pairs and
   unconnected pairs alike — yields the same candidates from both. *)
let candidates_agree g =
  let model = Costing.Cost_model.c_mm in
  let dp, _ = Core.Dphyp.solve_with_table g in
  let plans = ref [] in
  Plans.Dp_table.iter (fun p -> plans := p :: !plans) dp;
  List.for_all
    (fun (p1 : Plans.Plan.t) ->
      List.for_all
        (fun (p2 : Plans.Plan.t) ->
          (not (Ns.disjoint p1.set p2.set))
          ||
          let got =
            Core.Emit.candidates ~model ~counters:(Core.Counters.create ()) g p1 p2
          in
          let want = reference_candidates ~model g p1 p2 in
          List.length got = List.length want && List.for_all2 same_bits got want)
        !plans)
    !plans

(* Replaying DPhyp's pairs through the reference into a plain table
   (every candidate built, [Dp_table.update] deciding) gives the same
   table as the cost-first core, with and without a bound. *)
let tables_agree ?bound g =
  let model = Costing.Cost_model.c_out in
  let dp, _ = Core.Dphyp.solve_with_table ?bound g in
  let ref_dp = Plans.Dp_table.create_for g in
  for v = 0 to G.num_nodes g - 1 do
    Plans.Dp_table.force ref_dp (Plans.Plan.scan g v)
  done;
  let within = Option.value bound ~default:infinity in
  List.iter
    (fun (s1, s2) ->
      match Plans.Dp_table.find ref_dp s1, Plans.Dp_table.find ref_dp s2 with
      | Some p1, Some p2 ->
          List.iter
            (fun (p : Plans.Plan.t) ->
              if p.cost <= within then ignore (Plans.Dp_table.update ref_dp p))
            (reference_candidates ~model g p1 p2)
      | _ -> ())
    (Core.Dphyp.enumerate_ccps g);
  let same = ref (Plans.Dp_table.size dp = Plans.Dp_table.size ref_dp) in
  Plans.Dp_table.iter
    (fun (p : Plans.Plan.t) ->
      match Plans.Dp_table.find ref_dp p.set with
      | Some q when same_bits p q -> ()
      | _ -> same := false)
    dp;
  !same

let emission_agrees g =
  candidates_agree g && tables_agree g
  &&
  match Core.Dphyp.solve g with
  | Some best -> tables_agree ~bound:best.cost g
  | None -> true

let prop_emission_matches_reference =
  QCheck.Test.make ~name:"emission core = list-based reference on random hypergraphs"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed -> emission_agrees (rich_graph seed))

let test_emission_reference_derived () =
  List.iteri
    (fun i g -> check (Printf.sprintf "derived graph %d" i) true (emission_agrees g))
    (derived_graphs ())

(* Minor words are deterministic for fixed code, so this gate is exact:
   it catches allocation creeping back into the emitter.  Before the
   cost-first core these graphs took 127, 142, 394 and 148 words per
   csg-cmp-pair. *)
let test_emission_allocation () =
  List.iter
    (fun (name, g) ->
      let counters = Core.Counters.create () in
      let w0 = Gc.minor_words () in
      ignore (Core.Dphyp.solve ~counters g);
      let words = Gc.minor_words () -. w0 in
      let per_ccp = words /. float_of_int counters.Core.Counters.ccp_emitted in
      if per_ccp > 80.0 then
        Alcotest.failf "%s: %.1f minor words per csg-cmp-pair (limit 80)" name
          per_ccp)
    [
      ("star16-s0", List.hd (Workloads.Splits.star_based 16));
      ("cycle16-s0", List.hd (Workloads.Splits.cycle_based 16));
      ("clique-12", Workloads.Shapes.clique 12);
      ("chain-30", Workloads.Shapes.chain 30);
    ]

(* ---------- indexed enumeration vs. naive reference ---------- *)

(* A reference DPhyp enumerator: the same five member functions as
   Core.Dphyp, but driven by naive all-edges re-implementations of
   neighborhood and connects, and by a plain set table instead of the
   DP table (valid on inner-join-only graphs, where every emitted pair
   installs an entry).  The indexed fast paths change complexity, not
   semantics, so the emission traces must be identical element for
   element — the "before/after" guarantee of the hot-path overhaul. *)
let reference_trace g =
  let module Se = Nodeset.Subset_enum in
  let naive_neighborhood s x =
    let simple =
      Ns.fold (fun v acc -> Ns.union (G.simple_neighbors g v) acc) s Ns.empty
    in
    let simple = Ns.diff simple (Ns.union s x) in
    let sx = Ns.union s x in
    let cands = ref [] in
    let consider side_in side_out w =
      if Ns.subset side_in s then begin
        let cand = Ns.union side_out (Ns.diff w s) in
        if (not (Ns.is_empty cand)) && Ns.disjoint cand sx then
          cands := cand :: !cands
      end
    in
    List.iter
      (fun (e : He.t) ->
        consider e.u e.v e.w;
        consider e.v e.u e.w)
      (G.complex_edges g);
    let nb = ref simple in
    List.iter
      (fun c ->
        if
          Ns.disjoint c simple
          && not
               (List.exists
                  (fun c' -> (not (Ns.equal c c')) && Ns.strict_subset c' c)
                  !cands)
        then nb := Ns.add (Ns.min_elt c) !nb)
      !cands;
    !nb
  in
  let connects s1 s2 = Array.exists (fun e -> He.connects e s1 s2) (G.edges g) in
  let tbl = Hashtbl.create 256 in
  let mem s = Hashtbl.mem tbl (Ns.to_int s) in
  let trace = ref [] in
  let emit s1 s2 =
    trace := (s1, s2) :: !trace;
    Hashtbl.replace tbl (Ns.to_int (Ns.union s1 s2)) ()
  in
  let rec enumerate_cmp_rec s1 s2 x =
    let nb = naive_neighborhood s2 x in
    if not (Ns.is_empty nb) then begin
      Se.iter_nonempty nb (fun sub ->
          let s2' = Ns.union s2 sub in
          if mem s2' && connects s1 s2' then emit s1 s2');
      let x' = Ns.union x nb in
      Se.iter_nonempty nb (fun sub -> enumerate_cmp_rec s1 (Ns.union s2 sub) x')
    end
  in
  let emit_csg s1 =
    let x = Ns.union s1 (Ns.upto (Ns.min_elt s1)) in
    let nb = naive_neighborhood s1 x in
    Ns.iter_desc
      (fun v ->
        let s2 = Ns.singleton v in
        if connects s1 s2 then emit s1 s2;
        enumerate_cmp_rec s1 s2 (Ns.union x (Ns.inter nb (Ns.upto v))))
      nb
  in
  let rec enumerate_csg_rec s1 x =
    let nb = naive_neighborhood s1 x in
    if not (Ns.is_empty nb) then begin
      Se.iter_nonempty nb (fun sub ->
          let s1' = Ns.union s1 sub in
          if mem s1' then emit_csg s1');
      let x' = Ns.union x nb in
      Se.iter_nonempty nb (fun sub -> enumerate_csg_rec (Ns.union s1 sub) x')
    end
  in
  let n = G.num_nodes g in
  for v = 0 to n - 1 do
    Hashtbl.replace tbl (Ns.to_int (Ns.singleton v)) ()
  done;
  for v = n - 1 downto 0 do
    let s = Ns.singleton v in
    emit_csg s;
    enumerate_csg_rec s (Ns.upto v)
  done;
  List.rev !trace

let test_trace_matches_reference () =
  let raw pairs = List.map (fun (a, b) -> (Ns.to_int a, Ns.to_int b)) pairs in
  let cases =
    List.mapi
      (fun i g -> (Printf.sprintf "cycle8 split %d" i, g))
      (Workloads.Splits.cycle_based 8)
    @ List.mapi
        (fun i g -> (Printf.sprintf "star8 split %d" i, g))
        (Workloads.Splits.star_based 8)
    @ [
        ("chain7", Workloads.Shapes.chain 7);
        ("clique5", Workloads.Shapes.clique 5);
      ]
  in
  List.iter
    (fun (name, g) ->
      Alcotest.(check (list (pair int int)))
        name
        (raw (reference_trace g))
        (raw (Core.Dphyp.enumerate_ccps g)))
    cases

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "emission",
        [
          Alcotest.test_case "exactly the ccps" `Quick test_dphyp_emits_exactly_ccps;
          Alcotest.test_case "canonical order" `Quick test_dphyp_canonical_min_order;
          Alcotest.test_case "DP order" `Quick test_dphyp_dp_order;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "all exact algorithms" `Quick test_all_algorithms_agree;
          Alcotest.test_case "under c_mm" `Quick test_agreement_under_cmm;
          Alcotest.test_case "dpccp trace" `Quick test_dpccp_matches_dphyp_trace;
          Alcotest.test_case "dpccp rejects hypergraphs" `Quick
            test_dpccp_rejects_hypergraphs;
        ] );
      ( "golden",
        [
          Alcotest.test_case "figure 3 trace" `Quick test_fig3_trace_golden;
          Alcotest.test_case "trace = naive reference on split families"
            `Quick test_trace_matches_reference;
        ] );
      ( "counters",
        [
          Alcotest.test_case "dphyp tight" `Quick test_counters_dphyp_tight;
          Alcotest.test_case "baselines waste" `Quick test_counters_baselines_waste;
          Alcotest.test_case "dp entries = csg count" `Quick
            test_dp_entries_is_csg_count;
          Alcotest.test_case "tdpart beats naive topdown" `Quick
            test_tdpart_beats_naive;
        ] );
      ( "budget",
        [
          Alcotest.test_case "zero budget raises" `Quick test_budget_zero;
          Alcotest.test_case "exactly-sufficient budget does not raise" `Quick
            test_budget_exactly_sufficient;
          Alcotest.test_case "reset preserves the limit" `Quick
            test_reset_preserves_limit;
          Alcotest.test_case "pp shows budget context" `Quick
            test_counters_pp_budget;
          Alcotest.test_case "null-sink run leaves counters untouched" `Quick
            test_null_sink_counters_identical;
        ] );
      ( "plans",
        [
          Alcotest.test_case "cover all relations" `Quick
            test_plan_covers_all_relations;
          Alcotest.test_case "no cross products" `Quick test_no_cross_products;
          Alcotest.test_case "structurally valid (Plan_check)" `Quick
            test_plans_structurally_valid;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "disconnected query" `Quick
            test_disconnected_query_cross_products;
          Alcotest.test_case "three components" `Quick test_three_components;
          Alcotest.test_case "chain near node limit" `Quick
            test_large_chain_near_node_limit;
          Alcotest.test_case "unit cardinalities" `Quick test_unit_cardinalities;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "never beats optimum" `Quick
            test_sampled_plans_never_beat_optimum;
          Alcotest.test_case "structurally valid" `Quick
            test_sampled_plans_structurally_valid;
          Alcotest.test_case "diversity" `Quick test_sampling_diversity;
        ] );
      ( "goo",
        [
          Alcotest.test_case "valid but suboptimal" `Quick
            test_goo_valid_but_suboptimal;
          Alcotest.test_case "cross products apply covered edges" `Quick
            test_goo_cross_product_applies_covered_edges;
          Alcotest.test_case "strictly worse somewhere" `Quick
            test_goo_strictly_worse_somewhere;
        ] );
      ( "filter",
        [
          Alcotest.test_case "false blocks" `Quick test_filter_false_blocks_everything;
          Alcotest.test_case "unsupported" `Quick test_filter_unsupported;
          Alcotest.test_case "true is identity" `Quick
            test_filter_trivial_preserves_result;
        ] );
      ( "dependent",
        [
          Alcotest.test_case "switch fires" `Quick test_dependent_switch;
          Alcotest.test_case "cycle has no plan" `Quick
            test_dependent_no_valid_orientation;
        ] );
      ("emit", [ Alcotest.test_case "applicable_op" `Quick test_applicable_op ]);
      ("properties", [ q prop_random_agreement; q prop_random_emission ]);
      ( "applied",
        [
          q prop_applied_is_derived;
          Alcotest.test_case "non-inner derived graphs" `Quick
            test_applied_derived_noninner;
        ] );
      ( "emit-ref",
        [
          q prop_emission_matches_reference;
          Alcotest.test_case "non-inner derived graphs" `Quick
            test_emission_reference_derived;
          Alcotest.test_case "allocation per csg-cmp-pair" `Quick
            test_emission_allocation;
        ] );
    ]
