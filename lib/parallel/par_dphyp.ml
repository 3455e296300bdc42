module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge
module Plan = Plans.Plan
module Dp = Plans.Dp_table

(* Subsets fit a flat 2^n table up to this size (same bound as
   Dp_table.flat_max_nodes); beyond it both the oracle and the shard
   switch to hash tables. *)
let flat_max = 18

(* Sharded-table stripe count; must be a power of two. *)
let num_stripes = 128

(* ---- growable int vector (pair buffer) --------------------------- *)

type vec = { mutable buf : int array; mutable len : int }

let vec_create () = { buf = [||]; len = 0 }

let vec_push v x =
  let cap = Array.length v.buf in
  if v.len = cap then begin
    let buf = Array.make (if cap = 0 then 16 else 2 * cap) 0 in
    Array.blit v.buf 0 buf 0 v.len;
    v.buf <- buf
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

(* ---- connectivity oracle ----------------------------------------- *)

(* Weak-closure connectivity: treat every simple edge inside [s] as a
   link and every complex edge with u ∪ v ⊆ s as a clique over its
   in-[s] cover.  This over-approximates Definition 3 (hypernode
   orientation is ignored; flexible w-relations ride along), and
   crucially it contains every set the sequential run tables: an
   entry S is always s1 ∪ s2 for two smaller entries joined by an
   edge with u ⊆ s1, v ⊆ s2, so by induction the closure glues all of
   S.  Over-approximation slack only ever emits extra pairs with a
   side that has no DP entry, which the emitter drops — see
   doc/algorithm.mld.  Uses only immutable graph indexes (no scratch
   arena), so it is safe on a shared graph from any domain. *)
let connected_weakly g s =
  match Ns.cardinal s with
  | 0 -> false
  | 1 -> true
  | _ ->
      let reach = ref (Ns.min_set s) in
      let continue = ref true in
      while !continue do
        let r = !reach in
        let grown = ref (Ns.union r (Ns.inter (G.simple_neighborhood g r) s)) in
        List.iter
          (fun (e : He.t) ->
            if Ns.subset (Ns.union e.u e.v) s then begin
              let cov = Ns.inter (He.covers e) s in
              if Ns.intersects cov !grown then grown := Ns.union !grown cov
            end)
          (G.complex_edges g);
        if Ns.equal !grown r then continue := false else reach := !grown
      done;
      Ns.equal !reach s

(* One oracle closure per worker domain.  Flat: a shared bool array
   over all 2^n subsets, filled in parallel (disjoint word-sized
   slots — race-free) and read-only afterwards.  Hashed: a private
   memo per domain, computing the closure on demand. *)
let build_oracles pool g jobs =
  let n = G.num_nodes g in
  if n <= flat_max then begin
    let size = 1 lsl n in
    let conn = Array.make size false in
    let nchunks = min size (jobs * 4) in
    let chunk = (size + nchunks - 1) / nchunks in
    Pool.run_fun pool nchunks (fun i _wid ->
        let lo = i * chunk and hi = min size ((i + 1) * chunk) in
        for key = lo to hi - 1 do
          conn.(key) <- connected_weakly g (Ns.unsafe_of_int key)
        done);
    Array.init jobs (fun _ s -> conn.(Ns.to_int s))
  end
  else
    Array.init jobs (fun _ ->
        let memo = Hashtbl.create 4096 in
        fun s ->
          let key = Ns.to_int s in
          match Hashtbl.find_opt memo key with
          | Some b -> b
          | None ->
              let b = connected_weakly g s in
              Hashtbl.replace memo key b;
              b)

(* ---- sharded DP table -------------------------------------------- *)

(* Layer-k protocol: reads hit only entries of size < k, finalized at
   the previous barrier, so flat reads are lock-free (distinct array
   slots, publication via the pool mutex); size-k updates go through
   the stripe mutex of the key.  Hash tables mutate buckets on every
   write, so in hashed mode reads take the stripe lock too. *)
type shard =
  | Sflat of { plans : Plan.t option array; ties : int array }
  | Shashed of (int, Plan.t * int) Hashtbl.t array

let shard_create g =
  let n = G.num_nodes g in
  if n <= flat_max then
    let size = 1 lsl n in
    Sflat { plans = Array.make size None; ties = Array.make size max_int }
  else
    Shashed
      (Array.init num_stripes (fun _ ->
           Hashtbl.create
             (max 16 (Hypergraph.Csg_enum.estimate_connected_subgraphs g
                      / num_stripes))))

let shard_find shard stripes s =
  match shard with
  | Sflat f -> f.plans.(Ns.to_int s)
  | Shashed tbls ->
      let key = Ns.to_int s in
      let sid = key land (num_stripes - 1) in
      let m = stripes.(sid) in
      Mutex.lock m;
      let r = Hashtbl.find_opt tbls.(sid) key in
      Mutex.unlock m;
      Option.map fst r

(* Keep the lexicographic minimum of (cost, tie).  Minimum-taking is
   commutative and associative, so the table contents after a layer
   barrier do not depend on domain interleaving; [tie] is the
   candidate's rank in the sequential emission order, so among
   equal-cost candidates the sequential winner (first seen, because
   sequential [update] replaces only on strictly lower cost) wins
   here too. *)
let shard_add shard stripes tie (plan : Plan.t) =
  let key = Ns.to_int plan.set in
  let sid = key land (num_stripes - 1) in
  let m = stripes.(sid) in
  Mutex.lock m;
  (match shard with
  | Sflat f ->
      let better =
        match f.plans.(key) with
        | None -> true
        | Some (old : Plan.t) ->
            plan.cost < old.cost || (plan.cost = old.cost && tie < f.ties.(key))
      in
      if better then begin
        f.plans.(key) <- Some plan;
        f.ties.(key) <- tie
      end
  | Shashed tbls -> (
      let tbl = tbls.(sid) in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.replace tbl key (plan, tie)
      | Some ((old : Plan.t), otie) ->
          if plan.cost < old.cost || (plan.cost = old.cost && tie < otie) then
            Hashtbl.replace tbl key (plan, tie)));
  Mutex.unlock m

(* Could a candidate of this cost still win?  Only a strictly cheaper
   incumbent rules it out — an equal cost may win on the tie-break,
   which [shard_add] settles under the lock.  In flat mode the read is
   lock-free and may see an older entry; entries only ever get
   cheaper, so a stale answer errs towards building the plan. *)
let shard_admits shard stripes s cost =
  match shard_find shard stripes s with
  | None -> true
  | Some (old : Plan.t) -> cost <= old.cost

let shard_iter f = function
  | Sflat { plans; _ } ->
      Array.iter (function Some p -> f p | None -> ()) plans
  | Shashed tbls ->
      Array.iter (fun tbl -> Hashtbl.iter (fun _ (p, _) -> f p) tbl) tbls

(* ---- the three phases -------------------------------------------- *)

let run_parallel ?obs ?tel ~model ?filter ?budget ~pool g =
  let jobs = Pool.jobs pool in
  let n = G.num_nodes g in
  Obs.Span.with_opt obs "enumerate:dphyp-par" (fun sp ->
      let parent = Core.Counters.create_shared ?budget () in
      let forks = Array.init jobs (fun _ -> Core.Counters.fork parent) in
      let gs =
        Array.init jobs (fun i -> if i = 0 then g else G.copy_scratch g)
      in
      (* Phase 0: connectivity oracle. *)
      let oracles =
        Obs.Span.with_opt obs "par:oracle" (fun _ ->
            build_oracles pool g jobs)
      in
      (* Phase 1: per-root enumeration.  Pairs are buffered per
         (root, result-cardinality); packed into one int when both
         sides fit (n <= 31), two otherwise.  Root 0 may grow into
         all of {1..n-1} and is the heaviest, so roots are submitted
         in ascending order. *)
      let stride = if n <= 31 then 1 else 2 in
      let buckets =
        Array.init n (fun _ -> Array.init (n + 1) (fun _ -> vec_create ()))
      in
      Obs.Span.with_opt obs "par:enumerate" (fun _ ->
          Pool.run_fun pool n (fun root wid ->
              let by_layer = buckets.(root) in
              let emit s1 s2 =
                let k = Ns.cardinal s1 + Ns.cardinal s2 in
                let v = by_layer.(k) in
                if stride = 1 then
                  vec_push v ((Ns.to_int s1 lsl n) lor Ns.to_int s2)
                else begin
                  vec_push v (Ns.to_int s1);
                  vec_push v (Ns.to_int s2)
                end
              in
              Core.Dphyp.run_root ~mem:oracles.(wid) ~emit
                ~counters:forks.(wid) gs.(wid) root));
      let total_pairs =
        Array.fold_left
          (fun acc bl -> Array.fold_left (fun a v -> a + v.len) acc bl)
          0 buckets
        / stride
      in
      (* Phase 2: layer-synchronous emission k = 2..n against the
         sharded table.  Within a layer the buffered pairs are
         replayed in sequential emission order — roots descending,
         recursion order within a root — and their position is the
         tie-break, so the surviving plans match the sequential run
         exactly. *)
      let shard = shard_create g in
      let stripes = Array.init num_stripes (fun _ -> Mutex.create ()) in
      (* Per-domain emit/merge time: each worker accumulates into its
         own slot (race-free), recorded into the telemetry histogram
         after the last layer barrier. *)
      let merge_s = Array.make jobs 0.0 in
      Ns.iter (fun v -> shard_add shard stripes 0 (Plan.scan g v))
        (G.all_nodes g);
      Obs.Span.with_opt obs "par:emit" (fun _ ->
          for k = 2 to n do
            let bvecs = ref [] in
            for root = 0 to n - 1 do
              let v = buckets.(root).(k) in
              if v.len > 0 then bvecs := v :: !bvecs
            done;
            (* prepending ascending roots leaves the list in
               descending-root order — the sequential order *)
            let bvecs = Array.of_list !bvecs in
            let nb = Array.length bvecs in
            let offs = Array.make (nb + 1) 0 in
            for i = 0 to nb - 1 do
              offs.(i + 1) <- offs.(i) + (bvecs.(i).len / stride)
            done;
            let total = offs.(nb) in
            if total > 0 then begin
              let nchunks = min total (jobs * 4) in
              let chunk = (total + nchunks - 1) / nchunks in
              Pool.run_fun pool nchunks (fun ci wid ->
                  let t0 = Obs.Span.now () in
                  Fun.protect ~finally:(fun () ->
                      merge_s.(wid) <- merge_s.(wid) +. (Obs.Span.now () -. t0))
                  @@ fun () ->
                  let lo = ci * chunk and hi = min total ((ci + 1) * chunk) in
                  if lo < hi then begin
                    let b = ref 0 in
                    while offs.(!b + 1) <= lo do
                      incr b
                    done;
                    let counters = forks.(wid) and gg = gs.(wid) in
                    (* [cur] is the sequence number of the pair being
                       emitted: the candidate's tie-break rank *)
                    let cur = ref lo in
                    let emit =
                      Core.Emit.make_with ?filter ~model ~counters gg
                        ~find:(shard_find shard stripes)
                        ~admits:(shard_admits shard stripes)
                        ~add:(fun rank plan ->
                          shard_add shard stripes ((!cur * 2) + rank) plan)
                    in
                    for seq = lo to hi - 1 do
                      cur := seq;
                      while offs.(!b + 1) <= seq do
                        incr b
                      done;
                      let v = bvecs.(!b) in
                      let pos = seq - offs.(!b) in
                      let s1, s2 =
                        if stride = 1 then
                          let p = v.buf.(pos) in
                          ( Ns.unsafe_of_int (p lsr n),
                            Ns.unsafe_of_int (p land ((1 lsl n) - 1)) )
                        else
                          ( Ns.unsafe_of_int v.buf.(2 * pos),
                            Ns.unsafe_of_int v.buf.((2 * pos) + 1) )
                      in
                      Core.Emit.emit_pair emit s1 s2
                    done
                  end)
            end
          done);
      (* Finalize: materialize a plain DP table (leaves are already in
         the shard) and fold the per-domain counters back. *)
      let dp = Dp.create_for g in
      shard_iter (Dp.force dp) shard;
      Array.iter (fun c -> Core.Counters.absorb ~into:parent c) forks;
      (match tel with
      | None -> ()
      | Some tel ->
          Array.iteri
            (fun i s ->
              if s > 0.0 then
                Obs.Export.observe_s tel
                  ~help:
                    "Per-domain seconds spent merging buffered pairs into \
                     the sharded DP table"
                  ~labels:[ ("domain", string_of_int i) ]
                  "joinopt_parallel_merge_seconds" s)
            merge_s);
      (match sp with
      | None -> ()
      | Some sp ->
          Obs.Span.set sp "jobs" (Obs.Span.Int jobs);
          Obs.Span.set sp "pairs_buffered" (Obs.Span.Int total_pairs);
          let st = Pool.stats pool in
          Obs.Span.set sp "pool_tasks" (Obs.Span.Int st.Pool.tasks_run);
          Obs.Span.set sp "pool_wait_ms"
            (Obs.Span.Float (st.Pool.wait_s *. 1000.));
          Array.iteri
            (fun i (c : Core.Counters.t) ->
              Obs.Span.set sp
                (Printf.sprintf "d%d_pairs" i)
                (Obs.Span.Int c.pairs_considered))
            forks);
      {
        Core.Optimizer.plan = Dp.find dp (G.all_nodes g);
        counters = parent;
        dp_entries = Dp.size dp;
        tier = None;
        attempts = [];
      })

let run ?obs ?tel ?(model = Costing.Cost_model.c_out) ?filter ?budget ~pool g
    =
  (* Wide graphs (n beyond the single-word width) don't fit the
     pair-packing scheme of the parallel replay, and exhaustive DP is
     not what anyone runs at that scale anyway — dispatch sequential
     and let the adaptive ladder's partitioned tier do its job. *)
  if Pool.jobs pool <= 1 || G.num_nodes g > Ns.small_capacity then
    Core.Optimizer.run ?obs ?tel ~model ?filter ?budget Core.Optimizer.Dphyp g
  else run_parallel ?obs ?tel ~model ?filter ?budget ~pool g
