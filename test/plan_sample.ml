module Ns = Nodeset.Node_set
module Se = Nodeset.Subset_enum
module G = Hypergraph.Graph

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let random_plan ?(model = Costing.Cost_model.c_out) ~seed g =
  let rng = Random.State.make [| 524287; seed |] in
  let counters = Core.Counters.create () in
  let conn = Hypergraph.Connectivity.make_cache g in
  let rec build s =
    if Ns.is_singleton s then Some (Plans.Plan.scan g (Ns.min_elt s))
    else begin
      (* canonical partitions (min(s) on the left), random order *)
      let parts =
        Se.fold_nonempty (Ns.without_min s)
          (fun acc s2 ->
            let s1 = Ns.diff s s2 in
            if
              Hypergraph.Connectivity.is_connected conn s1
              && Hypergraph.Connectivity.is_connected conn s2
              && G.connects g s1 s2
            then (s1, s2) :: acc
            else acc)
          []
      in
      let rec try_parts = function
        | [] -> None
        | (s1, s2) :: rest -> (
            match build s1, build s2 with
            | Some p1, Some p2 -> (
                match Core.Emit.candidates ~model ~counters g p1 p2 with
                | [] -> try_parts rest
                | cands ->
                    Some (List.nth cands (Random.State.int rng (List.length cands)))
                )
            | _ -> try_parts rest)
      in
      try_parts (shuffle rng parts)
    end
  in
  build (G.all_nodes g)

let sample_costs ?model ~seeds g =
  List.filter_map
    (fun seed ->
      Option.map
        (fun (p : Plans.Plan.t) -> p.cost)
        (random_plan ?model ~seed g))
    seeds
