module G = Hypergraph.Graph

type tier = Exact | Partitioned | Idp_k of int | Greedy | Conv

let tier_name = function
  | Exact -> "exact"
  | Partitioned -> "partitioned"
  | Idp_k k -> Printf.sprintf "idp-%d" k
  | Greedy -> "greedy"
  | Conv -> "dpconv"

(* The subset-convolution pre-tier pays Θ(n·2^n) word operations up
   front, which only beats DPhyp's Θ(3^n) pair stream when the graph
   is dense enough that most subsets are connected — on sparse graphs
   DPhyp's neighborhood walk never visits them.  12 relations is where
   the clique crossover sits; 0.4 of the complete graph's edges keeps
   the connected fraction (and hence the transform's useful work)
   high. *)
let conv_min_nodes = 12
let conv_min_density = 0.4

let conv_applicable g =
  let n = G.num_nodes g in
  n >= conv_min_nodes
  && n <= Dpconv.max_relations
  && Dpconv.supported g
  && float_of_int (G.num_edges g)
     >= conv_min_density *. float_of_int (n * (n - 1) / 2)

type attempt = { tier : tier; completed : bool; pairs : int }

type outcome = {
  plan : Plans.Plan.t option;
  tier : tier;
  counters : Counters.t;
  dp_entries : int;
  attempts : attempt list;
}

let default_ks = [ 10; 7; 5; 3 ]

(* Every tier gets a fresh budget: the point of the ladder is that
   each rung does strictly less work per answer, so re-charging the
   budget keeps the semantics simple ("no single strategy may exceed
   b pairs") and deterministic.  The final GOO rung is deliberately
   unbudgeted — it is O(n^2 · n) pairs and must always produce the
   answer of last resort. *)
let solve ?obs ?(model = Costing.Cost_model.c_out) ?budget
    ?(ks = default_ks) g =
  let attempts = ref [] in
  let record tier completed (c : Counters.t) =
    attempts := { tier; completed; pairs = c.Counters.pairs_considered } :: !attempts
  in
  let finish tier (counters : Counters.t) dp_entries plan =
    record tier true counters;
    { plan; tier; counters; dp_entries; attempts = List.rev !attempts }
  in
  (* One span per ladder rung.  The pairs attribute is attached in a
     [finally] so an attempt aborted by [Budget_exhausted] still
     reports what it cost before the exception unwinds. *)
  let tier_span tier (c : Counters.t) f =
    (* Label every DP table the rung creates with its tier, so a
       provenance recording of a ladder run can attribute each memo
       decision to the rung that made it. *)
    let run () = Plans.Dp_table.with_context ("tier:" ^ tier_name tier) f in
    match obs with
    | None -> run ()
    | Some ctx ->
        Obs.Span.with_ ctx ("tier:" ^ tier_name tier) (fun sp ->
            Fun.protect
              ~finally:(fun () ->
                Obs.Span.set sp "pairs"
                  (Obs.Span.Int c.Counters.pairs_considered))
              run)
  in
  let n = G.num_nodes g in
  let rec descend = function
        | [] ->
            let counters = Counters.create () in
            let plan =
              tier_span Greedy counters (fun () -> Goo.solve ~model ~counters g)
            in
            finish Greedy counters 0 plan
        | k :: rest when k >= n || k < 2 ->
            (* k >= n would just repeat the exact run that already
               blew the budget *)
            descend rest
        | k :: rest -> (
            let counters = Counters.create ?budget () in
            match
              tier_span (Idp_k k) counters (fun () ->
                  Idp.solve ?obs ~model ~counters ~k g)
            with
            | Some plan -> finish (Idp_k k) counters 0 (Some plan)
            | None ->
                record (Idp_k k) true counters;
                descend rest
            | exception Counters.Budget_exhausted ->
                record (Idp_k k) false counters;
                descend rest)
  in
  if n > Nodeset.Node_set.small_capacity then begin
    (* Wide queries: exhaustive DP over the whole graph is out of
       reach (and DPhyp would try to enumerate 2^n subsets), so the
       ladder starts at the partitioned tier — per-block exact DP
       stitched with IDP — and degrades through the IDP rungs to GOO
       exactly as before. *)
    let counters = Counters.create ?budget () in
    match
      tier_span Partitioned counters (fun () ->
          Partition.solve ?obs ~model ~counters g)
    with
    | Some plan -> finish Partitioned counters 0 (Some plan)
    | None ->
        record Partitioned true counters;
        descend ks
    | exception Counters.Budget_exhausted ->
        record Partitioned false counters;
        descend ks
  end
  else begin
    let exact ?bound ~on_exhausted () =
      let exact_counters = Counters.create ?budget () in
      match
        tier_span Exact exact_counters (fun () ->
            Dphyp.solve_with_table ~model ?bound ~counters:exact_counters g)
      with
      | dp, plan -> finish Exact exact_counters (Plans.Dp_table.size dp) plan
      | exception Counters.Budget_exhausted ->
          record Exact false exact_counters;
          on_exhausted ()
    in
    if not (conv_applicable g) then exact ~on_exhausted:(fun () -> descend ks) ()
    else begin
      (* Dense simple graph: run the subset-convolution bound first.
         Its certified C_out upper bound prunes the exact run (see
         Dphyp's [bound]); if the exact rung then blows the budget the
         dpconv plan — a real, checked plan — beats restarting from
         IDP.  And since any plan's C_out sums its join outputs, the
         exact bottleneck value C_max is a lower bound on the optimum:
         when the two meet, the dpconv plan is already optimal and the
         exact rung is skipped entirely. *)
      let conv_counters = Counters.create ?budget () in
      match
        tier_span Conv conv_counters (fun () ->
            Dpconv.solve ~model ~objective:Dpconv.Cout_bound
              ~counters:conv_counters g)
      with
      | exception Counters.Budget_exhausted ->
          record Conv false conv_counters;
          exact ~on_exhausted:(fun () -> descend ks) ()
      | o -> (
          match o.Dpconv.plan with
          | None ->
              record Conv true conv_counters;
              exact ~on_exhausted:(fun () -> descend ks) ()
          | Some plan ->
              let conv_entries = Plans.Dp_table.size o.Dpconv.dp in
              let tight =
                (* the C_max lower bound argument is specific to
                   output-cardinality costing: the model itself, not
                   any model that shares its name *)
                model == Costing.Cost_model.c_out
                && o.Dpconv.bound <= o.Dpconv.cmax *. (1. +. 1e-9)
              in
              if tight then finish Conv conv_counters conv_entries (Some plan)
              else begin
                record Conv true conv_counters;
                exact ~bound:o.Dpconv.bound
                  ~on_exhausted:(fun () ->
                    finish Conv conv_counters conv_entries (Some plan))
                  ()
              end)
    end
  end

(* The quality price of graceful degradation, as an aligned plan diff
   (see Partition.loss_report for the exact-baseline caveats). *)
let loss_report ?model g (o : outcome) =
  match (o.tier, o.plan) with
  | Exact, _ | _, None -> None
  | tier, Some plan ->
      Partition.loss_report ?model ~labels:(tier_name tier, "exact") g plan
