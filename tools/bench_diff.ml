(* bench_diff — regression gate over benchmark / analyze JSON files.

   Both the bench ledger (bench/v1) and obs_analyze/v1 end their
   documents with a flat "summary" object of numeric metrics.  This
   tool compares the summaries of two such files metric by metric and
   fails (exit 1) when the geometric-mean ratio current/baseline
   exceeds a threshold, so a perf regression breaks the build instead
   of rotting silently in results/.

     bench_diff BASELINE CURRENT           # threshold 1.25
     bench_diff --gates FILE               # every gate listed in FILE
     bench_diff --scale F -o OUT INPUT     # synthesize a scaled summary

   A gates file holds one gate per line, THRESHOLD BASELINE CURRENT
   REASON, with paths relative to the file; blank lines and lines
   starting with '#' are skipped.  Every gate runs; the exit code is
   1 if any failed.

   The scale mode exists for testing the gate itself: a 2x-slower
   synthetic summary must make the diff fail.

   Exit codes: 0 no regression, 1 regression, 2 usage / malformed
   input.  Stdlib only — the gate must not depend on the libraries it
   polices. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

exception Malformed of string

let fail_malformed path what =
  raise (Malformed (Printf.sprintf "%s: %s" path what))

let find_from s pos sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go pos

(* Extract the flat [key -> number] pairs of the "summary" object.
   Non-numeric values (e.g. a null exact_cout in an analyze report)
   are skipped rather than rejected: the gate diffs what is
   comparable. *)
let summary path s =
  let start =
    match find_from s 0 "\"summary\"" with
    | Some i -> i
    | None -> fail_malformed path "no \"summary\" block"
  in
  let obj =
    match String.index_from_opt s start '{' with
    | Some i -> i + 1
    | None -> fail_malformed path "no object after \"summary\""
  in
  let n = String.length s in
  let is_ws c = c = ' ' || c = '\n' || c = '\t' || c = '\r' || c = ',' in
  let rec skip_ws i = if i < n && is_ws s.[i] then skip_ws (i + 1) else i in
  let rec pairs acc i =
    let i = skip_ws i in
    if i >= n then fail_malformed path "unterminated summary object"
    else if s.[i] = '}' then List.rev acc
    else if s.[i] <> '"' then fail_malformed path "expected a key string"
    else
      let key_end =
        match String.index_from_opt s (i + 1) '"' with
        | Some e -> e
        | None -> fail_malformed path "unterminated key string"
      in
      let key = String.sub s (i + 1) (key_end - i - 1) in
      let colon =
        match String.index_from_opt s key_end ':' with
        | Some c -> c
        | None -> fail_malformed path "expected ':' after key"
      in
      let v0 = skip_ws (colon + 1) in
      let rec value_end j =
        if j >= n || s.[j] = ',' || s.[j] = '}' || is_ws s.[j] then j
        else value_end (j + 1)
      in
      let v1 = value_end v0 in
      let acc =
        match float_of_string_opt (String.sub s v0 (v1 - v0)) with
        | Some v -> (key, v) :: acc
        | None -> acc
      in
      pairs acc v1
  in
  match pairs [] obj with
  | [] -> fail_malformed path "summary holds no numeric metrics"
  | kvs -> kvs

let load path = summary path (read_file path)

(* --scale: write a minimal document whose summary is the input's with
   every metric multiplied — a synthetic "this run got F-times slower"
   input for exercising the gate. *)
let write_scaled ~factor ~out input =
  let kvs = load input in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n  \"schema\": \"bench_scaled/v1\",\n";
      Printf.fprintf oc "  \"scaled_from\": \"%s\",\n" input;
      Printf.fprintf oc "  \"scale\": %.4f,\n" factor;
      output_string oc "  \"summary\": {\n";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "    \"%s\": %.4f%s\n" k (v *. factor)
            (if i = List.length kvs - 1 then "" else ","))
        kvs;
      output_string oc "  }\n}\n")

let diff ~threshold baseline current =
  let base = load baseline and cur = load current in
  let shared =
    List.filter_map
      (fun (k, b) ->
        match List.assoc_opt k cur with
        | Some c when b > 0.0 && c > 0.0 -> Some (k, b, c)
        | _ -> None)
      base
  in
  if shared = [] then
    fail_malformed current "no shared positive metrics with the baseline";
  Printf.printf "%-40s %12s %12s %8s\n" "metric" "baseline" "current" "ratio";
  let log_sum =
    List.fold_left
      (fun acc (k, b, c) ->
        let r = c /. b in
        Printf.printf "%-40s %12.2f %12.2f %8.3f%s\n" k b c r
          (if r > threshold then "  <-- slower" else "");
        acc +. log r)
      0.0 shared
  in
  let geomean = exp (log_sum /. float_of_int (List.length shared)) in
  Printf.printf "geomean ratio: %.3f  (threshold %.2f, %d metrics)\n" geomean
    threshold (List.length shared);
  if geomean > threshold then begin
    Printf.printf "REGRESSION: %s is %.2fx the baseline %s\n" current geomean
      baseline;
    1
  end
  else begin
    Printf.printf "OK: no regression\n";
    0
  end

(* Run every gate of [file]; 1 if any regressed. *)
let gates file =
  let dir = Filename.dirname file in
  let resolve p =
    if Filename.is_relative p && dir <> Filename.current_dir_name then
      Filename.concat dir p
    else p
  in
  let lines = String.split_on_char '\n' (read_file file) in
  List.fold_left
    (fun worst line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ "" ] -> worst
      | first :: _ when first.[0] = '#' -> worst
      | threshold :: baseline :: current :: (_ :: _ as reason) -> (
          match float_of_string_opt threshold with
          | Some threshold ->
              Printf.printf "\ngate: %s\n" (String.concat " " reason);
              max worst (diff ~threshold (resolve baseline) (resolve current))
          | None -> fail_malformed file ("bad threshold in: " ^ line))
      | _ ->
          fail_malformed file
            ("expected THRESHOLD BASELINE CURRENT REASON: " ^ line))
    0 lines

let () =
  let gates_file = ref None in
  let scale = ref None in
  let out = ref None in
  let files = ref [] in
  let usage =
    "bench_diff BASELINE CURRENT\n\
    \       bench_diff --gates FILE\n\
    \       bench_diff --scale F -o OUT INPUT\n\n\
     Diff the \"summary\" metrics of two benchmark/analyze JSON files;\n\
     exit 1 when the geomean current/baseline ratio exceeds the\n\
     threshold (1.25, or each gate's own in FILE)."
  in
  let spec =
    [
      ( "--gates",
        Arg.String (fun f -> gates_file := Some f),
        "FILE run every gate listed in FILE" );
      ( "--scale",
        Arg.Float (fun f -> scale := Some f),
        "F write a copy of INPUT's summary with every metric multiplied by F"
      );
      ("-o", Arg.String (fun s -> out := Some s), "FILE output for --scale");
    ]
  in
  Arg.parse spec (fun f -> files := f :: !files) usage;
  let code =
    try
      match (!gates_file, !scale, List.rev !files) with
      | Some file, None, [] -> gates file
      | None, Some factor, [ input ] -> (
          match !out with
          | Some out ->
              write_scaled ~factor ~out input;
              Printf.printf "wrote %s (summary of %s scaled %.2fx)\n" out
                input factor;
              0
          | None ->
              prerr_endline "bench_diff: --scale requires -o OUT";
              2)
      | None, None, [ baseline; current ] ->
          diff ~threshold:1.25 baseline current
      | _ ->
          prerr_endline usage;
          2
    with
    | Malformed msg ->
        Printf.eprintf "bench_diff: %s\n" msg;
        2
    | Sys_error msg ->
        Printf.eprintf "bench_diff: %s\n" msg;
        2
  in
  exit code
