module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

(* Greedy: keep a work list of component plans; each round, cost every
   joinable pair and keep the merge with the smallest output
   cardinality.  A dedicated DP table per round is wasteful, so merges
   are built through Emit.candidates. *)
let solve ?(model = Costing.Cost_model.c_out) ?(counters = Counters.create ())
    g =
  let n = G.num_nodes g in
  let components = ref (List.init n (fun v -> Plans.Plan.scan g v)) in
  let build p1 p2 =
    match Emit.candidates ~model ~counters g p1 p2 with
    | [] -> None
    | first :: rest ->
        Some
          (List.fold_left
             (fun (acc : Plans.Plan.t) (c : Plans.Plan.t) ->
               if c.cost < acc.cost then c else acc)
             first rest)
  in
  let rec round () =
    match !components with
    | [] -> None
    | [ p ] -> Some p
    | comps ->
        let best = ref None in
        List.iteri
          (fun i p1 ->
            List.iteri
              (fun j p2 ->
                if i < j then begin
                  Counters.tick_pair counters;
                  match build p1 p2 with
                  | None -> ()
                  | Some p -> (
                      match !best with
                      | Some (b, _, _) when b.Plans.Plan.card <= p.Plans.Plan.card
                        ->
                          ()
                      | _ -> best := Some (p, p1, p2))
                end)
              comps)
          comps;
        (match !best with
        | Some (p, p1, p2) ->
            components :=
              p :: List.filter (fun q -> q != p1 && q != p2) comps;
            round ()
        | None -> (
            (* no edge applies: cheapest cross product of the two
               smallest components *)
            match List.sort (fun a b -> Float.compare a.Plans.Plan.card b.Plans.Plan.card) comps with
            | p1 :: p2 :: rest ->
                counters.Counters.cost_calls <- counters.Counters.cost_calls + 1;
                (* Like every join, the cross product applies the inner
                   edges it is the first to cover, so the plan over the
                   union has applied exactly the edges inside it. *)
                let both = Ns.union p1.set p2.set in
                let pending =
                  List.filter
                    (fun (e : He.t) ->
                      let cover = G.edge_cover g e.id in
                      e.op.Relalg.Operator.kind = Relalg.Operator.Inner
                      && Ns.subset cover both
                      && (not (Ns.subset cover p1.set))
                      && not (Ns.subset cover p2.set))
                    (Array.to_list (G.edges g))
                in
                let p =
                  Plans.Plan.join model ~op:Relalg.Operator.join
                    ~edge_ids:(List.map (fun (e : He.t) -> e.id) pending)
                    ~sel:(List.fold_left (fun s (e : He.t) -> s *. e.sel) 1.0 pending)
                    p1 p2
                in
                components := p :: rest;
                round ()
            | _ -> assert false))
  in
  round ()
