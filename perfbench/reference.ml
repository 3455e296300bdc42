(* Reference optima stored with the benchmark.  For the default seed,
   each line pins one request's optimal C_out cost, computed once by an
   exact optimizer that the request itself does not use: top-down
   partition search ([Tdpart]) for dphyp_exact, and unbounded DPhyp
   without the DPconv pre-tier for the dense adaptive_hard requests.

   Line format: workload pass label graph-digest cost (%h).  Lookups go
   by workload and digest of the serialized graph. *)

type t = {
  costs : (string * string, float) Hashtbl.t;  (** (workload, digest) -> optimum *)
  passes : (string, int) Hashtbl.t;  (** passes stored per workload *)
  mutable lines : (string * int * string * string * float) list;
}

let file = "perfbench/reference.txt"

(* The requests that have a stored optimum: all of dphyp_exact, and the
   dense (at most 16-relation) requests of adaptive_hard. *)
let applies workload g = workload = "dphyp_exact" || Hypergraph.Graph.num_nodes g <= 16

let digest g = Digest.to_hex (Digest.string (Hypergraph.Serialize.to_string g))

let add t (w, pass, label, d, cost) =
  Hashtbl.replace t.costs (w, d) cost;
  let stored = Option.value (Hashtbl.find_opt t.passes w) ~default:0 in
  Hashtbl.replace t.passes w (max (pass + 1) stored);
  t.lines <- (w, pass, label, d, cost) :: t.lines

let load () =
  let t = { costs = Hashtbl.create 1024; passes = Hashtbl.create 4; lines = [] } in
  (if Sys.file_exists file then
     let ic = open_in file in
     (try
        while true do
          let line = input_line ic in
          if line <> "" && line.[0] <> '#' then
            Scanf.sscanf line "%s %d %s %s %s" (fun w pass label d cost ->
                add t (w, pass, label, d, float_of_string cost))
        done
      with End_of_file -> ());
     close_in ic);
  t

(* [`Optimum c] for a request the file covers, [`Missing] for a request
   in a stored pass whose input is not in the file (the generator
   changed), [`Beyond] for passes past the stored ones. *)
let find t workload pass g =
  match Hashtbl.find_opt t.costs (workload, digest g) with
  | Some c -> `Optimum c
  | None ->
      if pass < Option.value (Hashtbl.find_opt t.passes workload) ~default:0 then `Missing
      else `Beyond

let save t =
  let oc = open_out file in
  output_string oc
    "# workload pass label graph-digest optimal-cost (default seed; see reference.ml)\n";
  List.iter
    (fun (w, pass, label, d, cost) -> Printf.fprintf oc "%s %d %s %s %h\n" w pass label d cost)
    (List.sort_uniq compare t.lines);
  close_out oc

(* Store optima for the first [passes] passes of [workload], computing
   only inputs not yet in the file, and drop lines for inputs the
   generator no longer makes.  Saves after each pass, so an interrupted
   run keeps its progress. *)
let extend t ~workload ~passes ~pass_requests ~optimum =
  let keep = List.filter (fun (w, _, _, _, _) -> w <> workload) t.lines in
  let old = Hashtbl.copy t.costs in
  t.lines <- [];
  Hashtbl.reset t.costs;
  Hashtbl.reset t.passes;
  List.iter (add t) keep;
  for pass = 0 to passes - 1 do
    Array.iter
      (fun (r : Gen.graph_req) ->
        if applies workload r.Gen.graph then begin
          let d = digest r.graph in
          let cost =
            match Hashtbl.find_opt old (workload, d) with
            | Some c -> c
            | None ->
                let t0 = Unix.gettimeofday () in
                let c = optimum r.graph in
                Printf.printf "reference %s pass %d %s: %h (%.1f s)\n%!" workload pass r.label c
                  (Unix.gettimeofday () -. t0);
                c
          in
          add t (workload, pass, r.label, d, cost)
        end)
      (pass_requests pass);
    save t
  done
