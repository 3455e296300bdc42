(* Shared benchmark plumbing: adaptive wall-clock timing, table
   rendering, and the one bench document shape.  Times below ~50 ms
   are measured by repetition; longer runs are measured once (their
   variance is irrelevant next to the orders-of-magnitude differences
   the paper reports).  All timing goes through Obs.Span — the same
   clock the pipeline profiles report from — so bench numbers and
   obs_profile/v1 spans are directly comparable. *)

(* Adaptive timing: one trial run (measured as an Obs span); if fast,
   repeat until ~80 ms of total work and average.  Returns
   (milliseconds, result of last run). *)
let time_ms f =
  let ctx = Obs.Span.create () in
  let r = ref (Obs.Span.with_ ctx "trial" (fun _ -> f ())) in
  let first =
    match Obs.Span.spans ctx with
    | [ s ] -> s.Obs.Sink.dur_s
    | _ -> assert false
  in
  if first > 0.05 then (first *. 1000.0, !r)
  else begin
    let reps = max 3 (int_of_float (0.08 /. Float.max 1e-6 first)) in
    let t0 = Obs.Span.now () in
    for _ = 1 to reps do
      r := f ()
    done;
    let per = (Obs.Span.now () -. t0) /. float_of_int reps in
    (per *. 1000.0, !r)
  end

(* Best of three [time_ms] samples.  Sub-second runs on a busy host
   swing by whole factors with the state of the major heap (growth
   paid by whoever allocates first, marking debt left by a previous
   configuration); the best sample is the one that measured the code.
   A first sample over 10 s stands alone: at that scale the heap
   effects are noise and the repeats would cost minutes. *)
let time_best f =
  let ms1, r = time_ms f in
  if ms1 > 10_000.0 then (ms1, r)
  else begin
    let best = ref ms1 in
    for _ = 1 to 2 do
      let ms, _ = time_ms f in
      if ms < !best then best := ms
    done;
    (!best, r)
  end

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs
       /. float_of_int (List.length xs))

let fmt_ms ms =
  if ms < 0.01 then Printf.sprintf "%.4f" ms
  else if ms < 1.0 then Printf.sprintf "%.3f" ms
  else if ms < 100.0 then Printf.sprintf "%.2f" ms
  else Printf.sprintf "%.0f" ms

(* A bench aborts on the first violated invariant (a wrong plan, a
   budget not enforced): a number measured on a wrong answer must
   never reach a committed document. *)
let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      exit 2)
    fmt

(* [select ~what table names]: the entries of [table] named by
   [names] (all of them when [names] is empty); an unknown name
   aborts with the known ones. *)
let select ~what table = function
  | [] -> table
  | names ->
      List.map
        (fun n ->
          match List.assoc_opt n table with
          | Some x -> (n, x)
          | None ->
              die "unknown %s %S; known: %s" what n
                (String.concat ", " (List.map fst table)))
        names

(* The plan of [what], or abort unless it passes Plan_check. *)
let checked_plan ~what g = function
  | None -> die "%s: no plan" what
  | Some p -> (
      match Plans.Plan_check.check g p with
      | [] -> p
      | issues ->
          die "%s: plan fails Plan_check: %s" what
            (String.concat "; "
               (List.map Plans.Plan_check.issue_to_string issues)))

let csv_dir : string option ref = ref None

let current_slug = ref "experiment"

let slugify s =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c
      else if c >= 'A' && c <= 'Z' then Char.lowercase_ascii c
      else '_')
    s

let header title =
  let cut = min 40 (String.length title) in
  current_slug := slugify (String.sub title 0 cut);
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row_strings widths cells =
  String.concat "  "
    (List.map2 (fun w c -> Printf.sprintf "%*s" w c) widths cells)

let write_csv ~columns ~rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir (!current_slug ^ ".csv") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (String.concat "," columns ^ "\n");
          List.iter
            (fun r ->
              output_string oc
                (String.concat ","
                   (List.map (fun c -> String.trim c) r)
                ^ "\n"))
            rows)

let print_table ~columns ~rows =
  write_csv ~columns ~rows;
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun acc r -> max acc (String.length (List.nth r i)))
          (String.length c) rows)
      columns
  in
  print_endline (row_strings widths columns);
  print_endline
    (row_strings widths (List.map (fun w -> String.make w '-') widths));
  List.iter (fun r -> print_endline (row_strings widths r)) rows;
  flush stdout

type measured = {
  ms : float;
  ccp : int;
  pairs : int;
  nbh : int;
  cost : float;
  entries : int;
}

(* Time [run] (one optimization) and read its counters. *)
let measure_run run =
  let ms, result = time_ms run in
  {
    ms;
    ccp = result.Core.Optimizer.counters.Core.Counters.ccp_emitted;
    pairs = result.Core.Optimizer.counters.Core.Counters.pairs_considered;
    nbh = result.Core.Optimizer.counters.Core.Counters.neighborhood_calls;
    cost =
      (match result.Core.Optimizer.plan with
      | Some p -> p.Plans.Plan.cost
      | None -> nan);
    entries = result.Core.Optimizer.dp_entries;
  }

let measure ?model ?filter algo g =
  measure_run (fun () -> Core.Optimizer.run ?model ?filter algo g)

(* The adaptive rung that answered, "?" for a non-adaptive run. *)
let tier (r : Core.Optimizer.result) =
  match r.tier with Some t -> Core.Adaptive.tier_name t | None -> "?"

(* ------------------------------------------------------------------ *)
(* The bench ledger: every suite writes one document shape,

     {"schema": "bench/v1", "suite", "mode", "host_cores",
      "points": [...], "summary": {...}}

   one flat object per measured point, and a flat summary of numbers
   that tools/bench_diff.exe compares key by key.  A suite with a
   companion measurement (parallel.seq, cache.cold, dpconv.dphyp)
   writes it as a second ledger document whose summary repeats the
   gated keys, so a gate is one bench_diff over two summaries.        *)

type value = Int of int | Num of float | Str of string | Null

type point = (string * value) list

let field (p : point) k =
  match List.assoc k p with
  | Int i -> float_of_int i
  | Num x -> x
  | Str _ | Null -> nan

(* Non-finite numbers (C_out overflowing double at hundreds of
   relations) have no JSON spelling and are written as null. *)
let json_value = function
  | Int i -> string_of_int i
  | Num x when Float.is_finite x -> Printf.sprintf "%.6g" x
  | Num _ | Null -> "null"
  | Str s -> Printf.sprintf "%S" s

let cell = function
  | Int i -> string_of_int i
  | Num x -> Printf.sprintf "%.4g" x
  | Str s -> s
  | Null -> "-"

let show (p : point) =
  String.concat "  " (List.map (fun (k, v) -> k ^ "=" ^ cell v) p)

(* Measure every item, printing each point as it lands: the full
   suites run for minutes. *)
let measure_points f items =
  List.map
    (fun x ->
      let p = f x in
      Printf.printf "  %s\n%!" (show p);
      p)
    items

(* The points as a table whose columns are their keys. *)
let print_points = function
  | [] -> ()
  | p :: _ as points ->
      print_table ~columns:(List.map fst p)
        ~rows:(List.map (List.map (fun (_, v) -> cell v)) points)

(* The one function that writes a bench document to disk. *)
let write path doc =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc doc);
  Printf.printf "wrote %s\n%!" path

(* [fields] as the members of a JSON object, each [indent]ed and
   followed by [sep] but the last. *)
let json_fields ~indent ~sep fields =
  String.concat sep
    (List.map (fun (k, v) -> Printf.sprintf "%s%S: %s" indent k v) fields)

let document fields =
  "{\n" ^ json_fields ~indent:"  " ~sep:",\n" fields ^ "\n}\n"

let json_point (p : point) =
  List.map (fun (k, v) -> (k, json_value v)) p

(* [suite] "parallel.seq" is the companion of [path]: it lands at
   <path minus extension>_seq.json. *)
let write_ledger ~quick ~path ~suite ?(points = []) summary =
  let path =
    match String.index_opt suite '.' with
    | None -> path
    | Some i ->
        Filename.remove_extension path ^ "_"
        ^ String.sub suite (i + 1) (String.length suite - i - 1)
        ^ Filename.extension path
  in
  let line p = "    {" ^ json_fields ~indent:"" ~sep:", " (json_point p) ^ "}" in
  write path
    (document
       [
         ("schema", {|"bench/v1"|});
         ("suite", Printf.sprintf "%S" suite);
         ("mode", if quick then {|"quick"|} else {|"full"|});
         ("host_cores", string_of_int (Domain.recommended_domain_count ()));
         ( "points",
           if points = [] then "[]"
           else "[\n" ^ String.concat ",\n" (List.map line points) ^ "\n  ]" );
         ( "summary",
           "{\n"
           ^ json_fields ~indent:"    " ~sep:",\n" (json_point summary)
           ^ "\n  }" );
       ]);
  Printf.printf "%s summary: %s\n%!" suite (show summary)

(* ------------------------------------------------------------------ *)
(* Optimizer-as-a-service traffic for the cache and telemetry suites:
   a Zipf-skewed replay stream over a universe of star templates.
   Quick mode must keep @bench-smoke fast yet leave the 50x warm-hit
   gate real headroom: star-12 costs ~10 ms cold and a hit tens of
   microseconds.  Full mode is the paper's 16-relation star.          *)

module R = Workloads.Replay

let replay_workload ~quick =
  if quick then ("star12", R.star ~satellites:11 ~variants:4 ~length:120 ())
  else ("star16", R.star ~satellites:15 ~variants:8 ~length:400 ())

(* Serve the whole stream through [cache] on [pool]; any failed
   request aborts the bench. *)
let replay ?tel ?algo pool cache w =
  let ok = Atomic.make true in
  Parallel.Pool.run_fun pool (Array.length w.R.requests) (fun i _wid ->
      match Driver.Pipeline.optimize_graph ?tel ?algo ~cache (R.graph w i) with
      | Ok _ -> ()
      | Error _ -> Atomic.set ok false);
  if not (Atomic.get ok) then die "replay: a request failed"
