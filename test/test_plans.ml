(* Plan construction, DP table semantics, and plan → operator-tree
   re-materialization. *)

module Ns = Nodeset.Node_set
module P = Plans.Plan
module Dp = Plans.Dp_table
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))

let graph3 () =
  G.make
    [|
      G.base_rel ~card:100.0 "A";
      G.base_rel ~card:200.0 "B";
      G.base_rel ~card:300.0 "C";
    |]
    [|
      He.simple ~pred:(Relalg.Predicate.eq_cols 0 "x" 1 "x") ~sel:0.1 ~id:0 0 1;
      He.simple ~pred:(Relalg.Predicate.eq_cols 1 "y" 2 "y") ~sel:0.5 ~id:1 1 2;
    |]

let test_scan () =
  let g = graph3 () in
  let p = P.scan g 1 in
  checkf "card from catalog" 200.0 p.P.card;
  checkf "scan cost 0" 0.0 p.P.cost;
  Alcotest.(check (list int)) "set" [ 1 ] (Ns.to_list p.P.set);
  check_int "no joins" 0 (P.num_joins p)

let test_join_costs () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 in
  let j =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ]
      ~sel:0.1 a b
  in
  checkf "card" 2000.0 j.P.card;
  checkf "cout cost = out card" 2000.0 j.P.cost;
  Alcotest.(check (list int)) "set union" [ 0; 1 ] (Ns.to_list j.P.set);
  check_int "one join" 1 (P.num_joins j);
  (* costs accumulate through children *)
  let c = P.scan g 2 in
  let top =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 1 ]
      ~sel:0.5 j c
  in
  checkf "accumulated" (2000.0 +. (2000.0 *. 300.0 *. 0.5)) top.P.cost;
  Alcotest.(check (list int)) "leaves order" [ 0; 1; 2 ] (P.leaves top);
  check "left deep" true (P.is_left_deep top)

let test_shape_equal () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 in
  let mk sel = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel a b in
  check "same shape, different cost" true (P.shape_equal (mk 0.1) (mk 0.2));
  let flipped = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.1 b a in
  check "flipped differs" false (P.shape_equal (mk 0.1) flipped)

let test_dp_table () =
  let g = graph3 () in
  let dp = Dp.create 3 in
  check "empty find" true (Dp.find dp (Ns.singleton 0) = None);
  Dp.force dp (P.scan g 0);
  Dp.force dp (P.scan g 1);
  check "mem after force" true (Dp.mem dp (Ns.singleton 0));
  check_int "size" 2 (Dp.size dp);
  let a = P.scan g 0 and b = P.scan g 1 in
  let expensive =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.9 a b
  in
  let cheap =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.1 a b
  in
  check "first install changes" true (Dp.update dp expensive);
  check "cheaper replaces" true (Dp.update dp cheap);
  check "worse rejected" false (Dp.update dp expensive);
  checkf "kept the cheap one" cheap.P.cost (Dp.best dp cheap.P.set).P.cost;
  check_int "one pair entry" 1 (List.length (Dp.sets_of_size dp 2));
  check_int "two singletons" 2 (List.length (Dp.sets_of_size dp 1));
  Alcotest.check_raises "best missing" Not_found (fun () ->
      ignore (Dp.best dp (Ns.singleton 2)))

let test_iter_size () =
  let g = graph3 () in
  let dp = Dp.create 3 in
  for v = 0 to 2 do
    Dp.force dp (P.scan g v)
  done;
  let seen = ref [] in
  Dp.iter_size dp 1 (fun p -> seen := Ns.min_elt p.P.set :: !seen);
  Alcotest.(check (list int)) "all singletons visited" [ 0; 1; 2 ]
    (List.sort compare !seen);
  check_int "no size-2 entries" 0 (List.length (Dp.sets_of_size dp 2))

let test_to_optree () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 and c = P.scan g 2 in
  let j1 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.1 a b in
  let j2 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 1 ] ~sel:0.5 j1 c in
  let t = P.to_optree g j2 in
  check_int "two ops" 2 (Relalg.Optree.num_ops t);
  (match t with
  | Relalg.Optree.Node n ->
      check "root pred is edge 1's" true
        (n.Relalg.Optree.pred = (G.edge g 1).He.pred)
  | Relalg.Optree.Leaf _ -> Alcotest.fail "expected node");
  Alcotest.(check (list int)) "tables preserved" [ 0; 1; 2 ]
    (Ns.to_list (Relalg.Optree.tables t))

let test_to_optree_cross_product () =
  (* edge_ids = [] (GOO cross-product fallback) must yield True_ *)
  let g = graph3 () in
  let j =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[]
      ~sel:1.0 (P.scan g 0) (P.scan g 2)
  in
  match P.to_optree g j with
  | Relalg.Optree.Node n ->
      check "true pred" true (n.Relalg.Optree.pred = Relalg.Predicate.True_)
  | Relalg.Optree.Leaf _ -> Alcotest.fail "expected node"

let test_plan_check_ok () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 and c = P.scan g 2 in
  let j1 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.1 a b in
  let j2 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 1 ] ~sel:0.5 j1 c in
  Alcotest.(check (list string)) "clean plan has no issues" []
    (List.map Plans.Plan_check.issue_to_string (Plans.Plan_check.check g j2))

let test_plan_check_catches_missing_edge () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 and c = P.scan g 2 in
  (* join A-B with its edge, then attach C with NO edge: edge 1 is
     covered by the root but never applied *)
  let j1 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.1 a b in
  let j2 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[] ~sel:1.0 j1 c in
  check "missing edge detected" true
    (List.exists
       (function Plans.Plan_check.Edge_missed _ -> true | _ -> false)
       (Plans.Plan_check.check g j2))

let test_plan_check_catches_duplicate_edge () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 and c = P.scan g 2 in
  let j1 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0; 1 ] ~sel:0.1 a b in
  (* edge 1 does not even touch {A,B}; it is also re-applied above *)
  let j2 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 1 ] ~sel:0.5 j1 c in
  let issues = Plans.Plan_check.check g j2 in
  check "duplicate detected" true
    (List.exists
       (function Plans.Plan_check.Edge_duplicated _ -> true | _ -> false)
       issues);
  check "non-connecting detected" true
    (List.exists
       (function Plans.Plan_check.Edge_not_connecting _ -> true | _ -> false)
       issues)

let test_plan_check_applied_tracking () =
  (* A plan over S has applied exactly the edges whose cover lies
     inside S.  Plans store no applied set; Plan_check's edge
     accounting is what enforces the property. *)
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 and c = P.scan g 2 in
  let issues p = List.map Plans.Plan_check.issue_to_string (Plans.Plan_check.check g p) in
  let j = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.1 a b in
  Alcotest.(check (list string)) "covered edge applied once" [] (issues j);
  Alcotest.(check (list string)) "scan applies nothing" [] (issues a);
  Alcotest.(check (list string)) "covered edge left out" [ "edge never applied: e0" ]
    (issues
       (P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[] ~sel:1.0 a b));
  (* the emitter derives what is already applied from the sides' sets:
     joining C applies only the edge that join newly covers *)
  List.iter
    (fun (p : P.t) ->
      Alcotest.(check (list string)) "emitted plan valid" [] (issues p);
      match p.P.tree with
      | P.Join x -> Alcotest.(check (list int)) "only e1 applied" [ 1 ] x.P.edge_ids
      | _ -> Alcotest.fail "expected a join")
    (Core.Emit.candidates ~model:Costing.Cost_model.c_out
       ~counters:(Core.Counters.create ()) g j c)

let test_pp () =
  let g = graph3 () in
  let j =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.left_outer
      ~edge_ids:[ 0 ] ~sel:0.1 (P.scan g 0) (P.scan g 1)
  in
  Alcotest.(check string) "pp" "(R0 leftouter R1)" (P.to_string j)

(* ---------- Dp_table.update displacement model (qcheck) ---------- *)

(* Reference model: a map subset -> cheapest cost seen.  update must
   return true exactly when the candidate installs (absent) or
   strictly improves, and the surviving entry must be the model's
   minimum — across the flat (n <= 18), hashed and wide (n > 62)
   stores alike. *)
let qcheck_update_model =
  QCheck.Test.make ~name:"dp_table update displacement model (all stores)"
    ~count:60
    QCheck.(list_of_size Gen.(0 -- 40) (pair (int_bound 6) (int_bound 999)))
    (fun ops ->
      List.for_all
        (fun n_rel ->
          let g =
            G.make
              (Array.init n_rel (fun i ->
                   G.base_rel ~card:10.0 (Printf.sprintf "Q%d" i)))
              [||]
          in
          let dp = Dp.create n_rel in
          let model : (int, float) Hashtbl.t = Hashtbl.create 16 in
          List.for_all
            (fun (slot, c) ->
              let i = slot mod (n_rel - 1) in
              let sel = float_of_int (c + 1) /. 1000.0 in
              let p =
                P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join
                  ~edge_ids:[] ~sel (P.scan g i)
                  (P.scan g (i + 1))
              in
              let expected =
                match Hashtbl.find_opt model i with
                | None -> true
                | Some best -> p.P.cost < best
              in
              let got = Dp.update dp p in
              if expected then Hashtbl.replace model i p.P.cost;
              got = expected
              && (Dp.best dp p.P.set).P.cost = Hashtbl.find model i
              && Dp.size dp = Hashtbl.length model)
            ops)
        [ 3; 30; 80 ])

(* ---------- structural plan diff ---------- *)

module Pd = Plans.Plan_diff

let diff_plans () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 and c = P.scan g 2 in
  let jm = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join in
  let p1 = jm ~edge_ids:[ 1 ] ~sel:0.5 (jm ~edge_ids:[ 0 ] ~sel:0.1 a b) c in
  let p2 = jm ~edge_ids:[ 0 ] ~sel:0.1 a (jm ~edge_ids:[ 1 ] ~sel:0.5 b c) in
  (p1, p2)

let test_plan_diff_align () =
  let p1, p2 = diff_plans () in
  let d = Pd.diff p1 p2 in
  (* {A},{B},{C} match; {A,B} left-only, {B,C} right-only; root differs
     in cost between the two association orders *)
  check_int "entries cover both trees" 6 (List.length d.Pd.entries);
  let div = Pd.divergent d in
  check "at least the two one-sided subtrees diverge" true
    (List.length div >= 2);
  (match Pd.first_divergence d with
  | Some e ->
      Alcotest.(check (list int)) "smallest divergence is {A,B}" [ 0; 1 ]
        (Ns.to_list e.Pd.set);
      check "left side present" true (e.Pd.left <> None);
      check "right side absent" true (e.Pd.right = None)
  | None -> Alcotest.fail "expected a divergence");
  checkf "left total" p1.P.cost d.Pd.left_total;
  checkf "right total" p2.P.cost d.Pd.right_total

let test_plan_diff_identical () =
  let p1, _ = diff_plans () in
  let d = Pd.diff p1 p1 in
  check "no divergence" true (Pd.first_divergence d = None);
  check "all matching" true (List.for_all Pd.matching d.Pd.entries)

let test_plan_diff_report () =
  let p1, p2 = diff_plans () in
  let s =
    Pd.report ~names:(fun i -> [| "A"; "B"; "C" |].(i))
      ~labels:("tier", "exact") p1 p2
  in
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "labels shown" true (contains "tier" s && contains "exact" s);
  check "named sets shown" true (contains "{A,B}" s);
  check "totals line" true (contains "total cost" s)

(* ---------- DOT escaping of hostile relation names ---------- *)

let test_plan_dot_hostile_names () =
  let hostile = "ev\"il\\name\nx" in
  let g =
    G.make
      [| G.base_rel ~card:10.0 hostile; G.base_rel ~card:20.0 "ok" |]
      [| He.simple ~pred:(Relalg.Predicate.eq_cols 0 "x" 1 "x") ~sel:0.1 ~id:0 0 1 |]
  in
  let p =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ]
      ~sel:0.1 (P.scan g 0) (P.scan g 1)
  in
  let dot = Plans.Plan_dot.to_dot g p in
  (* the escaped label must be a well-formed quoted-string body: no
     raw newline, and every quote hidden behind a backslash *)
  let unescaped_quote s =
    let n = String.length s in
    let rec go i =
      i < n && (if s.[i] = '\\' then go (i + 2) else s.[i] = '"' || go (i + 1))
    in
    go 0
  in
  let esc = Hypergraph.Dot.escape_label hostile in
  check "no raw newline in escaped label" false (String.contains esc '\n');
  check "no unescaped quote in escaped label" false (unescaped_quote esc);
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "escaped quote present in dot" true (contains "ev\\\"il" dot);
  check "escaped newline present in dot" true (contains "\\n" dot);
  check "raw hostile name absent" true (not (contains hostile dot))

let () =
  Alcotest.run "plans"
    [
      ( "plan",
        [
          Alcotest.test_case "scan" `Quick test_scan;
          Alcotest.test_case "join costs" `Quick test_join_costs;
          Alcotest.test_case "shape_equal" `Quick test_shape_equal;
          Alcotest.test_case "to_optree" `Quick test_to_optree;
          Alcotest.test_case "to_optree cross product" `Quick
            test_to_optree_cross_product;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "plan_check",
        [
          Alcotest.test_case "clean plan" `Quick test_plan_check_ok;
          Alcotest.test_case "missing edge" `Quick test_plan_check_catches_missing_edge;
          Alcotest.test_case "duplicate edge" `Quick
            test_plan_check_catches_duplicate_edge;
          Alcotest.test_case "applied tracking" `Quick
            test_plan_check_applied_tracking;
        ] );
      ( "dp_table",
        [
          Alcotest.test_case "update semantics" `Quick test_dp_table;
          Alcotest.test_case "size buckets" `Quick test_iter_size;
          QCheck_alcotest.to_alcotest qcheck_update_model;
        ] );
      ( "plan_diff",
        [
          Alcotest.test_case "alignment" `Quick test_plan_diff_align;
          Alcotest.test_case "identical plans" `Quick test_plan_diff_identical;
          Alcotest.test_case "report rendering" `Quick test_plan_diff_report;
        ] );
      ( "plan_dot",
        [
          Alcotest.test_case "hostile names escaped" `Quick
            test_plan_dot_hostile_names;
        ] );
    ]
