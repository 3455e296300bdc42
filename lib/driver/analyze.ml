(* EXPLAIN ANALYZE: optimize, execute, and hold every operator's
   estimate against what actually happened.

   The optimizer half of the pipeline was instrumented in the obs
   work (spans, counters, profiles); this module closes the loop on
   the executor side.  One call optimizes a query, builds a calibrated
   instance, executes the chosen plan through the single-pass stats
   collector of [Executor.Exec.eval_stats], and joins the optimizer's
   per-node cardinality estimates ([Plans.Plan.estimates]) against the
   measured row counts by relation set.  The result is a per-operator
   table (estimated rows, actual rows, Q-error, wall clock, predicate
   evaluations), aggregate Q-error figures, and the measured
   plan-quality delta against the exact (DPhyp) plan — the ground
   truth behind both the C_out objective and the adaptive ladder's
   quality/time tradeoff. *)

module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module Opt = Core.Optimizer

type op_row = {
  depth : int;  (* nesting depth in the plan tree, root = 0 *)
  label : string;  (* operator symbol, or "scan <name>" *)
  tables : Ns.t;
  est_card : float;
  actual_rows : int;
  q_error : float option;  (* None when the operator produced 0 rows *)
  wall_ms : float;  (* inclusive, children included *)
  pred_evals : int;
  invocations : int;
  is_join : bool;
}

type report = {
  plan : Plans.Plan.t;
  source : string;  (* Optimizer.plan_source: algo / adaptive tier *)
  rows : op_row list;  (* preorder: parents before children *)
  result_rows : int;
  mismatch : string option;  (* None = plan result equals original *)
  max_q : float option;
  median_q : float option;
  est_cout : float;  (* sum of estimated join cardinalities *)
  measured_cout : float;  (* sum of actual join output rows *)
  original_cout : float;  (* measured C_out of the initial tree *)
  exact_cout : float option;  (* measured C_out of the exact plan *)
  quality_delta : float option;  (* measured / exact *)
  exec_ms : float;  (* wall clock of executing the chosen plan *)
  profile : Obs.Metrics.profile option;
}

let median = function
  | [] -> None
  | qs ->
      let arr = Array.of_list (List.sort compare qs) in
      let n = Array.length arr in
      Some
        (if n mod 2 = 1 then arr.(n / 2)
         else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0)

(* Join the plan's estimate annotations against the executed stats by
   relation set (both sides key on T(subtree), unique within a tree). *)
let build_rows g plan stats =
  let by_set = Hashtbl.create 32 in
  List.iter
    (fun (s : Executor.Exec.op_stat) ->
      Hashtbl.replace by_set (Ns.to_int s.tables) s)
    stats;
  let out = ref [] in
  let rec walk depth (p : Plans.Plan.t) =
    let label, is_join =
      match p.tree with
      | Plans.Plan.Scan i -> ("scan " ^ (G.relation g i).G.name, false)
      | Plans.Plan.Compound _ ->
          invalid_arg "Analyze: plan contains an unflattened compound leaf"
      | Plans.Plan.Join j -> (Relalg.Operator.symbol j.op, true)
    in
    let stat = Hashtbl.find_opt by_set (Ns.to_int p.set) in
    let actual, wall, preds, inv =
      match stat with
      | Some s -> (s.rows_out, s.wall_s *. 1e3, s.pred_evals, s.invocations)
      | None -> (0, 0.0, 0, 0)
    in
    out :=
      {
        depth;
        label;
        tables = p.set;
        est_card = p.card;
        actual_rows = actual;
        q_error =
          Costing.Cardinality.q_error ~est:p.card
            ~actual:(float_of_int actual);
        wall_ms = wall;
        pred_evals = preds;
        invocations = inv;
        is_join;
      }
      :: !out;
    match p.tree with
    | Plans.Plan.Scan _ | Plans.Plan.Compound _ -> ()
    | Plans.Plan.Join j ->
        walk (depth + 1) j.left;
        walk (depth + 1) j.right
  in
  walk 0 plan;
  List.rev !out

let analyze_tree ?obs ?(algo = Opt.Dphyp) ?model ?budget ?k ?conservative
    ?(rows = 8) ?(domain = 4) ?(seed = 42) ?sample tree =
  match Pipeline.prepare ?obs ?conservative tree with
  | Error m -> Error m
  | Ok (tree, g0) -> (
      let inst = Executor.Instance.for_tree ~rows ~domain ~seed tree in
      let g =
        Obs.Span.with_opt obs "calibrate" (fun _ ->
            Executor.Estimate.calibrate ?sample ~seed inst g0)
      in
      match Pipeline.optimize_graph ?obs ~algo ?model ?budget ?k g with
      | Error m -> Error m
      | Ok r ->
          let plan = r.Pipeline.plan in
          let result, stats = Executor.Exec.eval_stats ?obs inst r.Pipeline.tree in
          let op_rows = build_rows g plan stats in
          let joins = List.filter (fun row -> row.is_join) op_rows in
          let qs = List.filter_map (fun row -> row.q_error) joins in
          let est_cout =
            List.fold_left (fun s row -> s +. row.est_card) 0.0 joins
          in
          let measured_cout =
            List.fold_left
              (fun s row -> s +. float_of_int row.actual_rows)
              0.0 joins
          in
          let mismatch, original_cout =
            Obs.Span.with_opt obs "verify" (fun _ ->
                let expected, orig_stats =
                  Executor.Exec.eval_stats inst tree
                in
                let universe = Executor.Exec.output_tables tree in
                ( Executor.Bag.diff_summary ~universe expected result,
                  Executor.Stats.cout orig_stats ))
          in
          (* Exact reference: when the plan came from a heuristic tier,
             measure the C_out the exact plan would have achieved. *)
          let is_exact =
            Opt.exact algo || r.Pipeline.tier = Some Core.Adaptive.Exact
          in
          let exact_cout =
            if is_exact then Some measured_cout
            else
              Obs.Span.with_opt obs "exact-reference" (fun _ ->
                  match Pipeline.optimize_graph ?model g with
                  | Ok e -> Some (Executor.Stats.actual_cout inst e.Pipeline.tree)
                  | Error _ -> None)
          in
          let quality_delta =
            match exact_cout with
            | Some e when e > 0.0 -> Some (measured_cout /. e)
            | _ -> None
          in
          let source = Opt.plan_source algo r.Pipeline.tier in
          let quality =
            {
              Obs.Metrics.q_tier = source;
              est_cout;
              measured_cout;
              exact_cout;
              delta = quality_delta;
            }
          in
          let exec_ms =
            match op_rows with row :: _ -> row.wall_ms | [] -> 0.0
          in
          Ok
            {
              plan;
              source;
              rows = op_rows;
              result_rows = List.length result;
              mismatch;
              max_q =
                (match qs with
                | [] -> None
                | qs -> Some (List.fold_left Float.max neg_infinity qs));
              median_q = median qs;
              est_cout;
              measured_cout;
              original_cout;
              exact_cout;
              quality_delta;
              exec_ms;
              profile =
                (* the pipeline's profile ends at the plan; re-take
                   its spans so execution and verification show too *)
                (match (obs, r.Pipeline.profile) with
                | Some ctx, Some p ->
                    Some
                      (Obs.Metrics.make ?counters:p.Obs.Metrics.counters
                         ~dp_entries:p.Obs.Metrics.dp_entries
                         ~tiers:p.Obs.Metrics.tiers
                         ?winning_tier:p.Obs.Metrics.winning_tier ~quality
                         ~total_s:(Obs.Span.elapsed ctx) (Obs.Span.spans ctx))
                | _ -> None);
            })

let analyze_sql ?obs ?algo ?model ?budget ?k ?conservative ?rows ?domain
    ?seed ?sample sql =
  match
    Obs.Span.with_opt obs "parse" (fun _ -> Sqlfront.Binder.parse_and_bind sql)
  with
  | Error m -> Error m
  | Ok bound ->
      analyze_tree ?obs ?algo ?model ?budget ?k ?conservative ?rows ?domain
        ?seed ?sample bound.tree

(* ---------- rendering ---------- *)

let fmt_q = function None -> "-" | Some q -> Printf.sprintf "%.2f" q

let fmt_ms ~stable ms = if stable then "-" else Printf.sprintf "%.3f" ms

let pp ?(stable = false) ppf r =
  Format.fprintf ppf "plan: %a   (source: %s)@." Plans.Plan.pp r.plan r.source;
  Format.fprintf ppf "@.%-34s %10s %10s %8s %10s %10s@." "operator" "est rows"
    "actual" "q-error" "ms" "pred-evals";
  Format.fprintf ppf "%s@." (String.make 87 '-');
  List.iter
    (fun row ->
      let label =
        String.make (2 * row.depth) ' '
        ^ row.label ^ " " ^ Ns.to_string row.tables
      in
      Format.fprintf ppf "%-34s %10.1f %10d %8s %10s %10s@." label
        row.est_card row.actual_rows (fmt_q row.q_error)
        (fmt_ms ~stable row.wall_ms)
        (if row.is_join then string_of_int row.pred_evals else "-"))
    r.rows;
  let joins = List.filter (fun row -> row.is_join) r.rows in
  Format.fprintf ppf "@.q-error over %d joins: max %s, median %s@."
    (List.length joins) (fmt_q r.max_q) (fmt_q r.median_q);
  let offenders =
    List.filter (fun row -> row.q_error <> None) joins
    |> List.sort (fun a b -> compare b.q_error a.q_error)
    |> List.filteri (fun i _ -> i < 3)
  in
  (match offenders with
  | [] -> ()
  | off ->
      Format.fprintf ppf "top offenders: %s@."
        (String.concat "; "
           (List.map
              (fun row ->
                Printf.sprintf "%s %s q=%s" row.label
                  (Ns.to_string row.tables) (fmt_q row.q_error))
              off)));
  Format.fprintf ppf
    "C_out: est %.4g, measured %.4g, original order %.4g%s@." r.est_cout
    r.measured_cout r.original_cout
    (match r.exact_cout, r.quality_delta with
    | Some e, Some d ->
        Printf.sprintf ", exact plan %.4g (delta %.2fx)" e d
    | _ -> "");
  (match r.mismatch with
  | None ->
      Format.fprintf ppf
        "verified: plan result equals original-order result (%d tuples)@."
        r.result_rows
  | Some m -> Format.fprintf ppf "MISMATCH: %s@." m);
  Format.fprintf ppf "execution: %s ms@." (fmt_ms ~stable r.exec_ms)

(* ---------- obs_analyze/v1 ---------- *)

let opt_float_json = function
  | None -> "null"
  | Some f -> Printf.sprintf "%.4f" f

let row_json row =
  Printf.sprintf
    "    {\"op\": %S, \"depth\": %d, \"tables\": [%s], \"est_card\": %.4f, \
     \"actual_rows\": %d, \"q_error\": %s, \"ms\": %.4f, \"pred_evals\": %d, \
     \"invocations\": %d}"
    row.label row.depth
    (String.concat ", " (List.map string_of_int (Ns.to_list row.tables)))
    row.est_card row.actual_rows (opt_float_json row.q_error) row.wall_ms
    row.pred_evals row.invocations

let to_json ?(query = "") r =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"obs_analyze/v1\",\n";
  Printf.bprintf b "  \"query\": %S,\n" query;
  Printf.bprintf b "  \"source\": %S,\n" r.source;
  Printf.bprintf b "  \"plan\": %S,\n" (Plans.Plan.to_string r.plan);
  Buffer.add_string b "  \"operators\": [\n";
  Buffer.add_string b (String.concat ",\n" (List.map row_json r.rows));
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"summary\": {\n";
  Printf.bprintf b "    \"joins\": %d,\n"
    (List.length (List.filter (fun row -> row.is_join) r.rows));
  Printf.bprintf b "    \"max_q_error\": %s,\n" (opt_float_json r.max_q);
  Printf.bprintf b "    \"median_q_error\": %s,\n" (opt_float_json r.median_q);
  Printf.bprintf b "    \"est_cout\": %.4f,\n" r.est_cout;
  Printf.bprintf b "    \"measured_cout\": %.4f,\n" r.measured_cout;
  Printf.bprintf b "    \"original_cout\": %.4f,\n" r.original_cout;
  Printf.bprintf b "    \"exact_cout\": %s,\n" (opt_float_json r.exact_cout);
  Printf.bprintf b "    \"quality_delta\": %s,\n"
    (opt_float_json r.quality_delta);
  Printf.bprintf b "    \"result_rows\": %d,\n" r.result_rows;
  Printf.bprintf b "    \"exec_ms\": %.4f\n" r.exec_ms;
  Buffer.add_string b "  },\n";
  Printf.bprintf b "  \"verified\": %b\n" (r.mismatch = None);
  Buffer.add_string b "}\n";
  Buffer.contents b
