module Ns = Nodeset.Node_set
module Se = Nodeset.Subset_enum
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

(* DPconv (Stoian, arXiv 2409.08013): join ordering by fast subset
   convolution instead of csg-cmp-pair enumeration.

   The whole module works on the dense lattice indexes of
   Subset_enum.Lattice over the full node set: a subset is an int in
   [0, 2^n), arrays of size 2^n carry one value per subset, and the
   zeta / Möbius transforms walk them bit by bit.  Everything below
   max_relations stays on the Node_set single-word fast path, so index
   <-> set conversions are free.

   C_max ("minimize the largest intermediate") decomposes over the
   lattice: "can S be assembled with every intermediate cardinality
   ≤ τ?" is a monotone boolean recurrence whose layer k (subsets of
   cardinality k) is one ranked subset convolution of the layers
   below.  Binary search over the distinct intermediate cardinalities
   then pins the exact optimum in O(log 2^n) feasibility passes of
   O(2^n · n²) each — Õ(2^n) total, against DPhyp's Θ(3^n) pairs on a
   clique.  The search only runs between card(V) and the C_max of a
   greedy plan, and a pass stops as soon as its layers show that V is
   out of reach, so most below-optimum passes cost a few layers.

   C_out (sum of intermediates) does not decompose like that, so its
   mode refines the optimal-C_max feasible family with a layered,
   bucket-ordered min-plus pass and certifies the result by rebuilding
   the witness plan through Emit: the reported bound is the exact
   model cost of a real plan. *)

type objective = Cmax | Cout_bound

let objective_name = function Cmax -> "cmax" | Cout_bound -> "cout-bound"

let objective_of_name = function
  | "cmax" -> Some Cmax
  | "cout-bound" | "cout_bound" -> Some Cout_bound
  | _ -> None

(* The transforms keep one int array per rank: Θ(n·2^n) words, ~40 MB
   at 18 relations — and every feasible pass touches all of it. *)
let max_relations = 18

let all_inner g =
  Array.for_all
    (fun (e : He.t) -> e.He.op.Relalg.Operator.kind = Relalg.Operator.Inner)
    (G.edges g)

let no_free g =
  let ok = ref true in
  for v = 0 to G.num_nodes g - 1 do
    if not (Ns.is_empty (G.relation g v).G.free) then ok := false
  done;
  !ok

(* Simple inner graphs only: on those, a partition of a connected set
   into two connected halves always has a crossing simple edge, i.e.
   it IS a csg-cmp-pair — the fact that lets the convolution count
   partitions instead of enumerating pairs.  A complex edge's
   hypernode can straddle a cut without connecting it (Def. 7), so the
   convolution would accept partitions DPhyp rejects. *)
let supported g =
  let n = G.num_nodes g in
  n >= 1 && n <= max_relations
  && (not (G.has_hyperedges g))
  && all_inner g && no_free g

let require_supported g =
  if not (supported g) then
    invalid_arg
      (Printf.sprintf
         "Dpconv: unsupported graph (needs 1..%d relations, simple edges, \
          inner operators, no free variables); use dphyp"
         max_relations)

(* ---------- transforms ---------- *)

let check_len ~bits a name =
  if Array.length a <> 1 lsl bits then
    invalid_arg (Printf.sprintf "Dpconv.%s: array length must be 2^bits" name)

(* The one kernel behind every transform here.  Walk the lattice in
   blocks of 2·bit entries: the upper half of a block holds the sets
   with the bit and the lower half the same sets without it, so every
   entry finds its partner at a fixed offset and none is tested for
   membership.  Zeta adds the partner, Möbius subtracts it. *)
let butterfly ~inverse ~bits a =
  let size = 1 lsl bits in
  for i = 0 to bits - 1 do
    let b = 1 lsl i in
    let lo = ref 0 in
    while !lo < size do
      for j = !lo + b to !lo + (2 * b) - 1 do
        let x = Array.unsafe_get a j and y = Array.unsafe_get a (j - b) in
        Array.unsafe_set a j (if inverse then x - y else x + y)
      done;
      lo := !lo + (2 * b)
    done
  done

let zeta_in_place ~bits a =
  check_len ~bits a "zeta_in_place";
  butterfly ~inverse:false ~bits a

let mobius_in_place ~bits a =
  check_len ~bits a "mobius_in_place";
  butterfly ~inverse:true ~bits a

(* popcounts size: byte s is the number of members of s. *)
let popcounts size =
  let pop = Bytes.create size in
  Bytes.unsafe_set pop 0 '\000';
  for s = 1 to size - 1 do
    Bytes.unsafe_set pop s
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get pop (s lsr 1)) + (s land 1)))
  done;
  pop

let popc pop s = Char.code (Bytes.unsafe_get pop s)

(* Ranked ("fast") subset convolution: zeta each cardinality slice,
   multiply pointwise rank by rank, Möbius-invert each target rank.
   The inversion is not optional even at the top rank — ẑf_i · ẑg_j
   at S also counts overlapping pairs with |T1| + |T2| = |S| but
   T1 ∪ T2 ⊊ S, and only Möbius cancels them. *)
let subset_convolve ~bits f g =
  check_len ~bits f "subset_convolve";
  check_len ~bits g "subset_convolve";
  let size = 1 lsl bits in
  let pop = popcounts size in
  let slice a r =
    let s = Array.make size 0 in
    for i = 0 to size - 1 do
      if popc pop i = r then s.(i) <- a.(i)
    done;
    butterfly ~inverse:false ~bits s;
    s
  in
  let zf = Array.init (bits + 1) (slice f) in
  let zg = Array.init (bits + 1) (slice g) in
  let h = Array.make size 0 in
  let c = Array.make size 0 in
  for k = 0 to bits do
    Array.fill c 0 size 0;
    for i = 0 to k do
      let a = zf.(i) and b = zg.(k - i) in
      for s = 0 to size - 1 do
        Array.unsafe_set c s
          (Array.unsafe_get c s + (Array.unsafe_get a s * Array.unsafe_get b s))
      done
    done;
    butterfly ~inverse:true ~bits c;
    for s = 0 to size - 1 do
      if popc pop s = k then h.(s) <- c.(s)
    done
  done;
  h

(* ---------- solver ---------- *)

type outcome = {
  plan : Plans.Plan.t option;
  cmax : float;
  bound : float;
  feasible : int;
  dp : Plans.Dp_table.t;
}

let ctz x =
  let rec go i v = if v land 1 = 1 then i else go (i + 1) (v lsr 1) in
  go 0 x

(* Lower edge of the geometric (ratio-2) cost bucket containing x —
   the ordering key of the min-plus refinement's candidate lists and
   the sound lower bound its early exit compares against. *)
let bucket_floor x =
  if x <= 0. || not (Float.is_finite x) then 0.
  else Float.min x (Float.pow 2. (Float.floor (Float.log2 x)))

(* Upper bracket of the C_max search: a GOO plan is a witness, so the
   largest card among its joins is an achievable threshold.  GOO gets
   counters of its own, so the caller's pairs and budget see none of
   its work.  [nan] if that card is [nan], which no threshold admits. *)
let greedy_cmax g cards =
  let rec worst (p : Plans.Plan.t) =
    match p.Plans.Plan.tree with
    | Plans.Plan.Join j ->
        Float.max
          cards.(Ns.to_int p.Plans.Plan.set)
          (Float.max (worst j.Plans.Plan.left) (worst j.Plans.Plan.right))
    | Plans.Plan.Scan _ | Plans.Plan.Compound _ -> neg_infinity
  in
  match Goo.solve ~counters:(Counters.create ()) g with
  | Some p -> worst p
  | None -> nan

let solve ?(model = Costing.Cost_model.c_out) ?(objective = Cmax)
    ?(counters = Counters.create ()) g =
  require_supported g;
  let n = G.num_nodes g in
  let dp = Plans.Dp_table.create_for g in
  let emit = Emit.make ~model ~counters g dp in
  for v = 0 to n - 1 do
    Plans.Dp_table.force dp (Plans.Plan.scan g v)
  done;
  if n = 1 then begin
    let plan = Plans.Dp_table.find dp (G.all_nodes g) in
    let bound = match plan with Some p -> p.Plans.Plan.cost | None -> nan in
    { plan; cmax = 0.; bound; feasible = 1; dp }
  end
  else begin
    let lat = Se.Lattice.make (G.all_nodes g) in
    let size = 1 lsl n in
    let full = size - 1 in
    let pop = popcounts size in
    let popc s = popc pop s in
    let nb = Array.init n (fun v -> Ns.to_int (G.simple_neighbors g v)) in
    (* Per-node simple edges to higher-numbered partners.  cards below
       strips lowest bits first, so an edge {a,b} (a < b) multiplies in
       exactly once: at the set whose lowest member is a and which
       contains b. *)
    let edge_sels = Array.make n [] in
    Array.iter
      (fun (e : He.t) ->
        let a = Ns.min_elt e.He.u and b = Ns.min_elt e.He.v in
        let lo, hi = if a < b then (a, b) else (b, a) in
        edge_sels.(lo) <- (1 lsl hi, e.He.sel) :: edge_sels.(lo))
      (G.edges g);
    let edge_bits =
      Array.map (fun l -> Array.of_list (List.map fst l)) edge_sels
    and edge_sels =
      Array.map (fun l -> Float.Array.of_list (List.map snd l)) edge_sels
    in
    (* cards.(s): estimated cardinality of the join over s with every
       internal predicate applied exactly once — by the pending rule
       of Emit this is what any valid plan over s produces,
       independent of its shape. *)
    let cards = Array.make size 1.0 in
    for v = 0 to n - 1 do
      cards.(1 lsl v) <- G.cardinality g v
    done;
    for s = 3 to size - 1 do
      if popc s >= 2 then begin
        let low = s land (-s) in
        let rest = s lxor low in
        let bits = edge_bits.(ctz low) and sels = edge_sels.(ctz low) in
        let c = ref (cards.(rest) *. cards.(low)) in
        (* a loop, not a closure: c stays an unboxed float *)
        for e = 0 to Array.length bits - 1 do
          if rest land Array.unsafe_get bits e <> 0 then
            c := !c *. Float.Array.unsafe_get sels e
        done;
        cards.(s) <- !c
      end
    done;
    (* Connectivity mask from the incidence indexes: bitmask BFS from
       the lowest member.  Disconnected subsets never enter a layer,
       so they can never become champions. *)
    let conn = Bytes.make size '\000' in
    for v = 0 to n - 1 do
      Bytes.unsafe_set conn (1 lsl v) '\001'
    done;
    for s = 3 to size - 1 do
      if popc s >= 2 then begin
        let start = s land (-s) in
        let reach = ref start and frontier = ref start in
        while !frontier <> 0 do
          let nxt = ref 0 in
          let f = ref !frontier in
          while !f <> 0 do
            let b = !f land (- !f) in
            nxt := !nxt lor nb.(ctz b);
            f := !f lxor b
          done;
          frontier := !nxt land s land lnot !reach;
          reach := !reach lor !frontier
        done;
        if !reach = s then Bytes.unsafe_set conn s '\001'
      end
    done;
    let connected s = Bytes.unsafe_get conn s <> '\000' in
    if not (connected full) then
      { plan = None; cmax = nan; bound = nan; feasible = 0; dp }
    else begin
      (* conn_rank.(k): the connected sets of rank k, ascending — the
         only sets a layer can admit. *)
      let conn_rank =
        let count = Array.make (n + 1) 0 in
        for s = 1 to size - 1 do
          if connected s then count.(popc s) <- count.(popc s) + 1
        done;
        let by = Array.map (fun c -> Array.make c 0) count in
        Array.fill count 0 (n + 1) 0;
        for s = 1 to size - 1 do
          if connected s then begin
            let k = popc s in
            by.(k).(count.(k)) <- s;
            count.(k) <- count.(k) + 1
          end
        done;
        by
      in
      (* Candidate thresholds: every distinct intermediate cardinality
         of a connected set between card(V) (the root join is always an
         intermediate) and the greedy bracket.  τ* is one of them. *)
      let cand =
        let lo = cards.(full) and hi = greedy_cmax g cards in
        let hi = if Float.is_nan hi then infinity else hi in
        let a =
          Float.Array.create
            (Array.fold_left (fun m l -> m + Array.length l) 0 conn_rank)
        in
        let m = ref 0 in
        for k = 2 to n do
          Array.iter
            (fun s ->
              let c = cards.(s) in
              if c >= lo && c <= hi then begin
                Float.Array.unsafe_set a !m c;
                incr m
              end)
            conn_rank.(k)
        done;
        let a = Float.Array.sub a 0 !m in
        Float.Array.sort Float.compare a;
        (* drop duplicates in place *)
        let m = ref 0 in
        for i = 0 to Float.Array.length a - 1 do
          let c = Float.Array.get a i in
          if !m = 0 || Float.compare c (Float.Array.get a (!m - 1)) <> 0
          then begin
            Float.Array.set a !m c;
            incr m
          end
        done;
        Float.Array.sub a 0 !m
      in
      (* One feasibility pass: layer k of the achievability indicator
         f is the rank-k slice of the ranked subset convolution of the
         layers below — c(S) counts the partitions of S into two
         achievable halves — masked by connectivity and cards ≤ τ.
         zf.(r) caches the zeta transform of each finished layer and
         count.(r) its size; layer 1 (every singleton) is the same in
         every pass. *)
      let f = ref (Bytes.create size) and f_best = ref (Bytes.create size) in
      let zf = Array.make n [||] in
      for r = 1 to n - 1 do
        zf.(r) <- Array.make size 0
      done;
      for v = 0 to n - 1 do
        zf.(1).(1 lsl v) <- 1
      done;
      butterfly ~inverse:false ~bits:n zf.(1);
      let count = Array.make (n + 1) 0 in
      count.(1) <- n;
      let cbuf = Array.make size 0 in
      (* c = Σ zf_i · zf_(k-i) over 1 ≤ i ≤ k-i, skipping empty layers.
         Each unordered pair of ranks enters once: at a rank-k set the
         Möbius value of one term counts the partitions with those two
         half sizes, so every term is ≥ 0 there and dropping the
         mirror terms keeps the sign that the layer tests.  False when
         every term vanishes, i.e. layer k is empty. *)
      let products k =
        let first = ref true in
        for i = 1 to k / 2 do
          if count.(i) > 0 && count.(k - i) > 0 then begin
            let a = zf.(i) and b = zf.(k - i) in
            if !first then begin
              first := false;
              for s = 0 to size - 1 do
                Array.unsafe_set cbuf s
                  (Array.unsafe_get a s * Array.unsafe_get b s)
              done
            end
            else
              for s = 0 to size - 1 do
                Array.unsafe_set cbuf s
                  (Array.unsafe_get cbuf s
                  + (Array.unsafe_get a s * Array.unsafe_get b s))
              done
          end
        done;
        not !first
      in
      (* Every achievable set of more than j relations has a witness
         whose larger half, followed down, meets a set with between
         ⌈(j+1)/2⌉ and j relations; once those layers are all empty,
         V is out of reach. *)
      let dead j =
        let rec empty r = r > j || (count.(r) = 0 && empty (r + 1)) in
        empty ((j + 2) / 2)
      in
      let feasible_at tau =
        let f = !f in
        Bytes.fill f 0 size '\000';
        for v = 0 to n - 1 do
          Bytes.unsafe_set f (1 lsl v) '\001'
        done;
        let rec layer k =
          if k <= n && not (dead (k - 1)) then begin
            count.(k) <- 0;
            if products k then begin
              butterfly ~inverse:true ~bits:n cbuf;
              (* layer n (V alone) is read, never convolved *)
              let zk = if k < n then zf.(k) else [||] in
              if k < n then Array.fill zk 0 size 0;
              let sets = conn_rank.(k) in
              for j = 0 to Array.length sets - 1 do
                let s = Array.unsafe_get sets j in
                if Array.unsafe_get cbuf s > 0 && cards.(s) <= tau then begin
                  Bytes.unsafe_set f s '\001';
                  if k < n then Array.unsafe_set zk s 1;
                  count.(k) <- count.(k) + 1
                end
              done;
              if k < n && count.(k) > 0 then butterfly ~inverse:false ~bits:n zk
            end;
            layer (k + 1)
          end
        in
        layer 2;
        Bytes.unsafe_get f full <> '\000'
      in
      (* Feasibility is monotone in τ and the bracket's top is
         achievable, so binary search finds the exact optimum.  f_best
         keeps the bytes of the last feasible pass, the one at the
         final hi. *)
      let lo = ref 0 and hi = ref (Float.Array.length cand - 1) in
      let kept = ref (-1) in
      let probe mid =
        if feasible_at (Float.Array.get cand mid) then begin
          let t = !f in
          f := !f_best;
          f_best := t;
          kept := mid;
          hi := mid
        end
        else lo := mid + 1
      in
      (* The greedy plan is often C_max-optimal already; one probe just
         below its value settles that case in one pass and costs the
         search one pass otherwise. *)
      if !lo < !hi then probe (!hi - 1);
      while !lo < !hi do
        probe ((!lo + !hi) / 2)
      done;
      let tau = Float.Array.get cand !lo in
      if !kept <> !lo then probe !lo;
      let f = !f_best in
      let ok s = Bytes.unsafe_get f s <> '\000' in
      let feasible_count = ref 0 in
      for s = 0 to size - 1 do
        if ok s then incr feasible_count
      done;
      (* First achievable split of s, lowest-member side canonical;
         each candidate examined is one considered pair.  Guaranteed
         to exist for every achievable set (its layer counted > 0
         ordered partitions). *)
      let first_split s =
        let low = s land (-s) in
        let found = ref 0 in
        (try
           let t = ref low in
           while !t <> 0 do
             if !t land low <> 0 && !t <> s then begin
               Counters.tick_pair counters;
               if ok !t && ok (s lxor !t) then begin
                 found := !t;
                 raise Exit
               end
             end;
             t := (!t - s) land s
           done
         with Exit -> ());
        !found
      in
      let split = Array.make size 0 in
      (match objective with
      | Cmax ->
          (* Top-down: only the ~2(n-1) sets on the witness tree need
             splits; any achievable split keeps every intermediate
             ≤ τ*. *)
          let rec choose s =
            if popc s >= 2 then begin
              let t = first_split s in
              split.(s) <- t;
              choose t;
              choose (s lxor t)
            end
          in
          choose full
      | Cout_bound ->
          (* Layered/bucketed min-plus over the achievable family:
             process cardinality layers bottom-up; for each set, scan
             candidate halves from the per-rank lists in ascending
             cost-bucket order and stop as soon as the bucket floor
             plus the best possible complement cannot beat the
             incumbent.  A global work cap keeps the refinement
             Õ(2^n)-ish on shapes where everything is achievable; sets
             past the cap fall back to the first achievable split —
             still a valid plan, just a looser bound. *)
          let ub = Array.make size infinity in
          for v = 0 to n - 1 do
            ub.(1 lsl v) <- 0.
          done;
          (* by_rank.(k): the achievable sets of rank k, ascending *)
          let by_rank =
            Array.map
              (fun layer ->
                Array.of_list (List.filter ok (Array.to_list layer)))
              conn_rank
          in
          (* Per rank, the sets in ascending (bucket floor of the bound,
             set) order and, alongside, their floors. *)
          let sorted = Array.make (n + 1) [||] in
          let floors = Array.make (n + 1) (Float.Array.create 0) in
          sorted.(1) <- by_rank.(1);
          floors.(1) <- Float.Array.make (Array.length by_rank.(1)) 0.;
          let minub = Array.make (n + 1) infinity in
          minub.(1) <- 0.;
          let work = ref 0 in
          let cap = 4_000_000 in
          for k = 2 to n do
            Array.iter
              (fun s ->
                let best = ref infinity and bestt = ref 0 in
                if !work < cap then
                  (try
                     for i = 1 to k - 1 do
                       let lower = minub.(k - i) in
                       let arr = sorted.(i) and fl = floors.(i) in
                       let stop = ref false in
                       let j = ref 0 in
                       while (not !stop) && !j < Array.length arr do
                         let t = Array.unsafe_get arr !j in
                         if
                           cards.(s) +. Float.Array.unsafe_get fl !j +. lower
                           >= !best
                         then stop := true
                         else begin
                           incr work;
                           Counters.tick_pair counters;
                           (if t land s = t then
                              let other = s lxor t in
                              if ok other then begin
                                let c = cards.(s) +. ub.(t) +. ub.(other) in
                                if c < !best then begin
                                  best := c;
                                  bestt := t
                                end
                              end);
                           incr j
                         end
                       done
                     done;
                     if !work >= cap then raise Exit
                   with Exit -> ());
                if !bestt = 0 then begin
                  let t = first_split s in
                  bestt := t;
                  best := cards.(s) +. ub.(t) +. ub.(s lxor t)
                end;
                ub.(s) <- !best;
                split.(s) <- !bestt)
              by_rank.(k);
            let layer = by_rank.(k) in
            let len = Array.length layer in
            let fl = Float.Array.create len in
            for p = 0 to len - 1 do
              Float.Array.unsafe_set fl p (bucket_floor ub.(layer.(p)))
            done;
            (* positions, not sets: ties fall back to the ascending
               layer order, i.e. to the set *)
            let order = Array.init len Fun.id in
            Array.sort
              (fun a b ->
                match
                  Float.compare (Float.Array.unsafe_get fl a)
                    (Float.Array.unsafe_get fl b)
                with
                | 0 -> Int.compare a b
                | c -> c)
              order;
            let fk = Float.Array.create len in
            for p = 0 to len - 1 do
              Float.Array.unsafe_set fk p (Float.Array.unsafe_get fl order.(p))
            done;
            sorted.(k) <- Array.map (fun p -> layer.(p)) order;
            floors.(k) <- fk;
            Array.iter
              (fun s -> if ub.(s) < minub.(k) then minub.(k) <- ub.(s))
              layer
          done);
      (* Materialize the witness: emit each chosen split bottom-up
         through the canonical emitter, so costs come from the session
         model and the DP table carries a real plan per subset. *)
      let rec build s =
        if popc s >= 2 then begin
          let t = split.(s) in
          build t;
          build (s lxor t);
          Emit.emit_pair emit
            (Se.Lattice.of_index lat t)
            (Se.Lattice.of_index lat (s lxor t))
        end
      in
      build full;
      let plan = Plans.Dp_table.find dp (G.all_nodes g) in
      let bound = match plan with Some p -> p.Plans.Plan.cost | None -> nan in
      { plan; cmax = tau; bound; feasible = !feasible_count; dp }
    end
  end
