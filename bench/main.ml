(* Benchmark driver.

     main.exe [--quick] [--csv DIR] [--json FILE SUITE [FAMILY...]]
              [EXPERIMENT...]

   Without --json it prints the paper's tables and figures (every
   experiment, or the named ones); --quick trims the slowest points
   and --csv DIR additionally writes each table as DIR/<slug>.csv.
   With --json it runs one suite of Experiments.all_suites and writes
   its bench/v1 ledger document to FILE (see Bench_util.write_ledger);
   the dphyp suites take optional FAMILY names.  Bad input exits 2
   with the known names. *)

let usage () =
  Bench_util.die
    "usage: main.exe [--quick] [--csv DIR] [--json FILE SUITE [FAMILY...]] \
     [EXPERIMENT...]\n\
     suites: %s\n\
     experiments: %s"
    (String.concat ", " (List.map fst Experiments.all_suites))
    (String.concat ", " (List.map fst Experiments.all_experiments))

let () =
  let quick = ref false and json = ref None and names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--csv" :: dir :: rest ->
        Bench_util.csv_dir := Some dir;
        parse rest
    | "--json" :: path :: suite :: rest when !json = None && suite.[0] <> '-' ->
        json := Some (path, suite);
        parse rest
    | name :: rest when name <> "" && name.[0] <> '-' ->
        names := name :: !names;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick and names = List.rev !names in
  match !json with
  | Some (path, suite) -> (
      match List.assoc_opt suite Experiments.all_suites with
      | Some run -> run ~quick ~path names
      | None -> usage ())
  | None ->
      let todo =
        Bench_util.select ~what:"experiment" Experiments.all_experiments names
      in
      Printf.printf
        "DPhyp reproduction benchmarks (%s mode)\n\
         Shapes to compare with the paper: who wins, by what factor, where \
         the curves cross.\n"
        (if quick then "quick" else "full");
      List.iter (fun (_, f) -> f ~quick ()) todo
