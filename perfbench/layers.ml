(* The traced run's mirror of a request: the same public layer functions
   [Driver.Pipeline] calls, each under its own span, plus the
   enumeration / emission split of every DPhyp table it builds. *)

module G = Hypergraph.Graph
module Ns = Nodeset.Node_set
module Pc = Cache.Plan_cache

(* What the mirror's plan cache stores for one computed request. *)
type solved = {
  plan : Plans.Plan.t option;
  tier : string;  (** adaptive tier the mirror took; "" for plain DPhyp *)
}

(* A DPhyp table built while serving, queued for the split probe. *)
type dp_run = { graph : G.t; bound : float option; entries : int }

type t = {
  tr : Trace.t;
  cache : solved Pc.t;
  mutable dp_runs : dp_run list;
  mutable partition_pairs : int;
  mutable partition_nonfinite : int;
}

let create tr ~capacity =
  { tr; cache = Pc.create ~capacity (); dp_runs = []; partition_pairs = 0; partition_nonfinite = 0 }

let span m = Trace.with_span m.tr

let dphyp m name ?bound g =
  let dp, plan = span m name (fun () -> Core.Dphyp.solve_with_table ?bound g) in
  m.dp_runs <- { graph = g; bound; entries = Plans.Dp_table.size dp } :: m.dp_runs;
  plan

(* [Core.Adaptive.solve] without a budget, rung by rung.  The dense
   test restates the library's private DPconv pre-tier condition (at
   least 12 relations, 40% of the complete graph's edges); the run
   cross-checks the mirror's plan cost and tier against the untraced
   pipeline result, so a drift shows. *)
let conv_applicable g =
  let n = G.num_nodes g in
  n >= 12 && n <= Core.Dpconv.max_relations && Core.Dpconv.supported g
  && float_of_int (G.num_edges g) >= 0.4 *. float_of_int (n * (n - 1) / 2)

let adaptive m g =
  if G.num_nodes g > Ns.small_capacity then begin
    let counters = Core.Counters.create () in
    let plan = span m "partition" (fun () -> Core.Partition.solve ~counters g) in
    m.partition_pairs <- m.partition_pairs + counters.Core.Counters.pairs_considered;
    (match plan with
    | Some p when not (Float.is_finite p.Plans.Plan.cost) ->
        m.partition_nonfinite <- m.partition_nonfinite + 1
    | _ -> ());
    { plan; tier = "partitioned" }
  end
  else if conv_applicable g then begin
    let o = span m "dpconv" (fun () -> Core.Dpconv.solve ~objective:Core.Dpconv.Cout_bound g) in
    match o.Core.Dpconv.plan with
    | Some plan when o.Core.Dpconv.bound <= o.Core.Dpconv.cmax *. (1. +. 1e-9) ->
        { plan = Some plan; tier = "dpconv" }
    | Some _ -> { plan = dphyp m "dphyp.bounded" ~bound:o.Core.Dpconv.bound g; tier = "exact" }
    | None -> { plan = dphyp m "dphyp" g; tier = "exact" }
  end
  else { plan = dphyp m "dphyp" g; tier = "exact" }

(* The plan-cache key exactly as the pipeline builds it for C_out, no
   budget and the default IDP block size. *)
let exact_key algo g =
  Printf.sprintf "algo=%s model=cout budget=unlimited k=%d\n%s" (Core.Optimizer.name algo)
    Core.Idp.default_k (Hypergraph.Serialize.to_string g)

let lookup m algo g =
  let fingerprint = span m "cache.fingerprint" (fun () -> Cache.Fingerprint.of_graph g) in
  let exact = span m "cache.key" (fun () -> exact_key algo g) in
  span m "cache.lookup" (fun () ->
      let v, outcome =
        Pc.find_or_compute m.cache (Pc.key ~fingerprint ~exact) (fun () ->
            match algo with
            | Core.Optimizer.Adaptive -> adaptive m g
            | _ -> { plan = dphyp m "dphyp" g; tier = "" })
      in
      Trace.tag m.tr (Pc.outcome_name outcome);
      v)

(* One SQL request: sqlfront, then conflict analysis and derivation
   (with the validation the pipeline runs first), then the cache. *)
let sql m (t : Gen.template) =
  match span m "sqlfront" (fun () -> Sqlfront.Binder.parse_and_bind t.Gen.sql) with
  | Error _ -> None
  | Ok b -> (
      match Relalg.Optree.validate b.Sqlfront.Binder.tree with
      | Error _ -> None
      | Ok () ->
          let g =
            span m "conflicts" (fun () ->
                let tree = Conflicts.Simplify.simplify b.Sqlfront.Binder.tree in
                Conflicts.Derive.hypergraph
                  ~cards:(fun i -> t.Gen.cards.(i))
                  ~sels:(fun i -> t.Gen.sels.(i))
                  (Conflicts.Analysis.analyze tree))
          in
          Some (lookup m Core.Optimizer.Dphyp g))

let graph m algo g =
  let v = lookup m algo g in
  Option.iter
    (fun p -> ignore (span m "plan.to_optree" (fun () -> Plans.Plan.to_optree g p)))
    v.plan;
  v

(* ---------- enumeration / emission split ---------- *)

type split = {
  mutable ccps : int;
  mutable neighborhoods : int;
  mutable enum_s : float;
  mutable enum_words : float;
  mutable emit_s : float;
  mutable emit_words : float;
  mutable cost_calls : int;
  mutable solve_s : float;
  mutable mismatches : int;  (** replayed table's plan cost differs from the solve *)
}

let new_split () =
  {
    ccps = 0;
    neighborhoods = 0;
    enum_s = 0.;
    enum_words = 0.;
    emit_s = 0.;
    emit_words = 0.;
    cost_calls = 0;
    solve_s = 0.;
    mismatches = 0;
  }

let timed tr name f =
  let t0 = Trace.now () and w0 = Trace.words () in
  let r = Trace.with_span tr name f in
  (r, Trace.now () -. t0, Trace.words () -. w0)

(* Time full DPhyp, then enumeration alone ([Dphyp.run_root] over every
   root with a no-op emit and membership taken from the solved table,
   which replays the solve's enumeration exactly), then emission alone
   (the enumerated csg-cmp-pairs, collected untimed, replayed through
   [Emit.emit_pair] into a fresh table). *)
let probe tr s { graph = g; bound; _ } =
  Trace.with_span tr "probe" (fun () ->
      let (dp, plan), solve_s, _ =
        timed tr "probe.solve" (fun () -> Core.Dphyp.solve_with_table ?bound g)
      in
      let mem = Plans.Dp_table.mem dp in
      let roots f = for v = G.num_nodes g - 1 downto 0 do f v done in
      let counters = Core.Counters.create () in
      let ccps = ref 0 in
      let (), enum_s, enum_words =
        timed tr "probe.enum" (fun () ->
            roots (Core.Dphyp.run_root ~mem ~emit:(fun _ _ -> incr ccps) ~counters g))
      in
      let pairs = ref [] in
      roots
        (Core.Dphyp.run_root ~mem
           ~emit:(fun a b -> pairs := (a, b) :: !pairs)
           ~counters:(Core.Counters.create ()) g);
      let pairs = List.rev !pairs in
      let fresh = Plans.Dp_table.create_for g in
      for v = 0 to G.num_nodes g - 1 do
        Plans.Dp_table.force fresh (Plans.Plan.scan g v)
      done;
      let ec = Core.Counters.create () in
      let e = Core.Emit.make ?bound ~model:Costing.Cost_model.c_out ~counters:ec g fresh in
      let (), emit_s, emit_words =
        timed tr "probe.emit" (fun () -> List.iter (fun (a, b) -> Core.Emit.emit_pair e a b) pairs)
      in
      let cost p = Option.map (fun (p : Plans.Plan.t) -> p.cost) p in
      if cost (Plans.Dp_table.find fresh (G.all_nodes g)) <> cost plan then
        s.mismatches <- s.mismatches + 1;
      s.ccps <- s.ccps + !ccps;
      s.neighborhoods <- s.neighborhoods + counters.Core.Counters.neighborhood_calls;
      s.enum_s <- s.enum_s +. enum_s;
      s.enum_words <- s.enum_words +. enum_words;
      s.emit_s <- s.emit_s +. emit_s;
      s.emit_words <- s.emit_words +. emit_words;
      s.cost_calls <- s.cost_calls + ec.Core.Counters.cost_calls;
      s.solve_s <- s.solve_s +. solve_s)
