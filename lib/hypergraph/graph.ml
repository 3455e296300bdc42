module Ns = Nodeset.Node_set

type rel = { name : string; card : float; free : Ns.t }

let base_rel ?(free = Ns.empty) ?(card = 1000.0) name = { name; card; free }

(* Beyond the relations and edges themselves, [t] carries the indexes
   that keep the enumeration hot path proportional to the number of
   edges *incident to S* rather than to the number of edges in the
   whole query, plus a scratch arena reused across calls so candidate
   generation does not allocate (see doc/algorithm.mld, "Complexity &
   engineering").

   The incidence indexes are bitsets of 62-bit words ([Ns.Words]),
   stored flat: node [v]'s [w] words start at [v * w].  OR-ing them
   over a set yields its incident edges deduplicated and in ascending
   id order, with no gather, stamp or sort.

   The arena makes the candidate accessors non-reentrant: they must not
   be called from inside a callback of another accessor on the same
   graph, and a [t] must not be shared between domains.  Every
   accessor fully consumes the arena before returning, so ordinary
   sequential use — including the mutually recursive enumeration in
   lib/core — is safe. *)
type t = {
  n : int;
  relations : rel array;
  edges : Hyperedge.t array;
  simple_nb : Ns.t array;  (* per node: union of simple-edge neighbors *)
  complex : Hyperedge.t list;  (* non-simple edges, id order *)
  complex_arr : Hyperedge.t array;  (* same edges as [complex] *)
  complex_words : int;  (* words per bitset over [complex_arr] indexes *)
  complex_inc : int array;
      (* per node: the [complex_arr] indexes of the complex edges whose
         cover contains it *)
  edge_words : int;  (* words per bitset over edge ids *)
  edge_inc : int array;
      (* per node: the ids of all edges whose cover contains it *)
  node_words : int;  (* words per bitset over nodes *)
  touch : int array;  (* per node: union of the covers of its edges *)
  simple_inner : int array;  (* ids of the simple, plain inner-join edges *)
  sels : float array;  (* per edge id: selectivity *)
  edge_covers : Ns.t array;  (* per edge id: u ∪ v ∪ w *)
  complex_union : Ns.t;  (* union of all complex-edge covers *)
  free_arr : Ns.t array;  (* per node: the relation's free set *)
  free_union : Ns.t;  (* union of all free sets; usually empty *)
  (* scratch arena (see the non-reentrancy note above) *)
  cand : Ns.t array;  (* candidate hypernodes, generation order *)
  cand_card : int array;  (* cardinality of cand.(i) *)
  cand_order : int array;  (* permutation of [0, cand_len) by cardinality *)
  cand_keep : bool array;  (* survives E♮ minimization? *)
  mutable cand_len : int;
}

let bits = Ns.Words.bits

let words_for count = max 1 ((count + bits - 1) / bits)

(* Flat per-node bitsets of [words] words each: bit [i] of node [v]
   for every [i] with [v] in [cover i]. *)
let node_bitsets n words count cover =
  let a = Array.make (n * words) 0 in
  for i = 0 to count - 1 do
    Ns.iter
      (fun v ->
        let k = (v * words) + (i / bits) in
        a.(k) <- a.(k) lor (1 lsl (i mod bits)))
      (cover i)
  done;
  a

(* Word [k] of the OR of the bitsets of the members of [s]. *)
let or_over a words s k =
  let acc = ref 0 in
  for j = 0 to Ns.Words.count s - 1 do
    let m = ref (Ns.Words.get s j) in
    while !m <> 0 do
      let v = (j * bits) + Ns.Words.lowest_bit !m in
      acc := !acc lor a.((v * words) + k);
      m := !m land (!m - 1)
    done
  done;
  !acc

let make relations edges =
  let n = Array.length relations in
  if n = 0 then invalid_arg "Hypergraph.make: no relations";
  if n > Ns.max_nodes then
    invalid_arg
      (Printf.sprintf "Hypergraph.make: %d relations exceed the %d-node limit"
         n Ns.max_nodes);
  let all = Ns.full n in
  Array.iteri
    (fun i (e : Hyperedge.t) ->
      if e.id <> i then
        invalid_arg
          (Printf.sprintf "Hypergraph.make: edge at index %d has id %d" i e.id);
      if not (Ns.subset (Hyperedge.covers e) all) then
        invalid_arg "Hypergraph.make: edge mentions out-of-range node")
    edges;
  let simple_nb = Array.make n Ns.empty in
  let complex = ref [] in
  Array.iter
    (fun (e : Hyperedge.t) ->
      if Hyperedge.is_simple e then begin
        let a = Ns.min_elt e.u and b = Ns.min_elt e.v in
        simple_nb.(a) <- Ns.add b simple_nb.(a);
        simple_nb.(b) <- Ns.add a simple_nb.(b)
      end
      else complex := e :: !complex)
    edges;
  let complex = List.rev !complex in
  let complex_arr = Array.of_list complex in
  let nc = Array.length complex_arr in
  let m = Array.length edges in
  let edge_covers = Array.map Hyperedge.covers edges in
  let complex_union =
    Array.fold_left
      (fun acc (e : Hyperedge.t) -> Ns.union acc edge_covers.(e.id))
      Ns.empty complex_arr
  in
  let complex_words = words_for nc and edge_words = words_for m in
  let node_words = words_for n in
  let touch = Array.make (n * node_words) 0 in
  Array.iter
    (fun cover ->
      Ns.iter
        (fun v ->
          for j = 0 to node_words - 1 do
            let k = (v * node_words) + j in
            touch.(k) <- touch.(k) lor Ns.Words.get cover j
          done)
        cover)
    edge_covers;
  let simple_inner = Array.make edge_words 0 in
  Array.iter
    (fun (e : Hyperedge.t) ->
      if Hyperedge.is_simple e && e.op.kind = Relalg.Operator.Inner then
        simple_inner.(e.id / bits) <-
          simple_inner.(e.id / bits) lor (1 lsl (e.id mod bits)))
    edges;
  {
    n;
    relations;
    edges;
    simple_nb;
    complex;
    complex_arr;
    complex_words;
    complex_inc =
      node_bitsets n complex_words nc (fun k ->
          edge_covers.(complex_arr.(k).Hyperedge.id));
    edge_words;
    edge_inc = node_bitsets n edge_words m (fun i -> edge_covers.(i));
    node_words;
    touch;
    simple_inner;
    sels = Array.map (fun (e : Hyperedge.t) -> e.sel) edges;
    edge_covers;
    complex_union;
    free_arr = Array.map (fun r -> r.free) relations;
    free_union =
      Array.fold_left (fun acc r -> Ns.union acc r.free) Ns.empty relations;
    cand = Array.make (max 1 (2 * nc)) Ns.empty;
    cand_card = Array.make (max 1 (2 * nc)) 0;
    cand_order = Array.make (max 1 (2 * nc)) 0;
    cand_keep = Array.make (max 1 (2 * nc)) false;
    cand_len = 0;
  }

(* A shallow copy sharing every immutable index but owning a fresh
   candidate arena.  This is the unit of domain-parallelism: the
   relations, edges and incidence indexes are written once by [make]
   and only read afterwards, so any number of domains may use their
   own copy concurrently — the arena (the only mutable state) is
   private to each copy. *)
let copy_scratch g =
  {
    g with
    cand = Array.make (Array.length g.cand) Ns.empty;
    cand_card = Array.make (Array.length g.cand_card) 0;
    cand_order = Array.make (Array.length g.cand_order) 0;
    cand_keep = Array.make (Array.length g.cand_keep) false;
    cand_len = 0;
  }

let num_nodes g = g.n

let all_nodes g = Ns.full g.n

let relation g i = g.relations.(i)

let cardinality g i = g.relations.(i).card

(* Most queries have no table-valued functions at all, so the common
   case is a single emptiness test. *)
let free_of g s =
  if Ns.is_empty g.free_union then Ns.empty
  else Ns.union_over_array g.free_arr s

let edges g = g.edges

let num_edges g = Array.length g.edges

let edge g i = g.edges.(i)

let edge_cover g i = g.edge_covers.(i)

let edge_sel g i = g.sels.(i)

let edge_words g = g.edge_words

let simple_inner g k = g.simple_inner.(k)

(* Every edge incident to both sides covers a node of [small] and,
   through it, lies inside that node's [touch]: so only the part of
   [big] that [small] touches needs OR-ing, which keeps a pair whose
   big side is a large star cheap. *)
let pair_edges g small big k =
  let a = or_over g.edge_inc g.edge_words small k in
  if a = 0 then 0
  else begin
    let b = ref 0 in
    for j = 0 to Ns.Words.count big - 1 do
      let bj = Ns.Words.get big j in
      if bj <> 0 then begin
        let m = ref (bj land or_over g.touch g.node_words small j) in
        while !m <> 0 do
          let v = (j * bits) + Ns.Words.lowest_bit !m in
          b := !b lor g.edge_inc.((v * g.edge_words) + k);
          m := !m land (!m - 1)
        done
      end
    done;
    a land !b
  end

let simple_neighbors g i = g.simple_nb.(i)

let simple_neighborhood g s = Ns.union_over_array g.simple_nb s

let complex_edges g = g.complex

(* ---- indexed candidate generation --------------------------------- *)

(* E♮0(S, X) into the arena: candidate hypernodes reachable from S,
   disjoint from S and X.  Generalized edges contribute v ∪ (w \ S)
   when u ⊆ S (and symmetrically); the w-part outside S must travel
   with the opposite side (Section 6).  Generation order — ascending
   edge id, u-side before v-side — matches what a scan of all complex
   edges in id order produces. *)
let collect_candidates g s x =
  let sx = Ns.union s x in
  g.cand_len <- 0;
  for k = 0 to g.complex_words - 1 do
    let m = ref (or_over g.complex_inc g.complex_words s k) in
    while !m <> 0 do
      let e = g.complex_arr.((k * bits) + Ns.Words.lowest_bit !m) in
      m := !m land (!m - 1);
      let w_out = Ns.diff e.w s in
      if Ns.subset e.u s then begin
        let cand = Ns.union e.v w_out in
        if (not (Ns.is_empty cand)) && Ns.disjoint cand sx then begin
          g.cand.(g.cand_len) <- cand;
          g.cand_len <- g.cand_len + 1
        end
      end;
      if Ns.subset e.v s then begin
        let cand = Ns.union e.u w_out in
        if (not (Ns.is_empty cand)) && Ns.disjoint cand sx then begin
          g.cand.(g.cand_len) <- cand;
          g.cand_len <- g.cand_len + 1
        end
      end
    done
  done

(* Shared E♮0 → E♮ minimization: a candidate survives iff it avoids
   every simple neighbor (singleton hypernodes are minimal) and no
   other candidate is a strict subset of it.  Ranking the arena by
   cardinality means each candidate is only checked against strictly
   smaller ones — a strict subset has strictly smaller cardinality —
   so the sweep stops at the cardinality boundary instead of scanning
   all pairs.  Fills [g.cand_keep]; duplicates all survive (equal sets
   subsume nothing strictly), consumers that need a deduplicated list
   collapse them on output. *)
let minimize g simple =
  let k = g.cand_len in
  for i = 0 to k - 1 do
    g.cand_order.(i) <- i;
    g.cand_card.(i) <- Ns.cardinal g.cand.(i)
  done;
  for i = 1 to k - 1 do
    let x = g.cand_order.(i) in
    let cx = g.cand_card.(x) in
    let j = ref (i - 1) in
    while !j >= 0 && g.cand_card.(g.cand_order.(!j)) > cx do
      g.cand_order.(!j + 1) <- g.cand_order.(!j);
      decr j
    done;
    g.cand_order.(!j + 1) <- x
  done;
  for oi = 0 to k - 1 do
    let i = g.cand_order.(oi) in
    let c = g.cand.(i) in
    let keep = ref (Ns.disjoint c simple) in
    let oj = ref 0 in
    while !keep && !oj < oi do
      if Ns.strict_subset g.cand.(g.cand_order.(!oj)) c then keep := false;
      incr oj
    done;
    g.cand_keep.(i) <- !keep
  done

let candidate_hypernodes g s x =
  collect_candidates g s x;
  let acc = ref [] in
  for i = 0 to g.cand_len - 1 do
    acc := g.cand.(i) :: !acc
  done;
  !acc

let eligible_hypernodes g s x =
  let simple = Ns.diff (simple_neighborhood g s) (Ns.union s x) in
  collect_candidates g s x;
  minimize g simple;
  (* Singleton hypernodes from simple neighbors, descending node
     order; surviving complex candidates in front of them in reverse
     generation order, duplicates collapsed onto the latest-generated
     copy — the order the list-based implementation produced. *)
  let acc = ref (Ns.fold (fun v acc -> Ns.singleton v :: acc) simple []) in
  for i = 0 to g.cand_len - 1 do
    if g.cand_keep.(i) then begin
      let c = g.cand.(i) in
      let dup = ref false in
      for j = i + 1 to g.cand_len - 1 do
        if Ns.equal g.cand.(j) c then dup := true
      done;
      if not !dup then acc := c :: !acc
    end
  done;
  !acc

let neighborhood g s x =
  let simple = Ns.diff (simple_neighborhood g s) (Ns.union s x) in
  if Ns.disjoint s g.complex_union then simple
  else begin
    collect_candidates g s x;
    if g.cand_len = 0 then simple
    else begin
      minimize g simple;
      let nb = ref simple in
      for i = 0 to g.cand_len - 1 do
        if g.cand_keep.(i) then nb := Ns.add (Ns.min_elt g.cand.(i)) !nb
      done;
      !nb
    end
  end

exception Found_edge

(* Any edge connecting s1 and s2 covers nodes on both sides, so it is
   incident to the smaller side — scan only those. *)
let connects g s1 s2 =
  let small, big =
    if Ns.cardinal s1 <= Ns.cardinal s2 then (s1, s2) else (s2, s1)
  in
  try
    let rem = ref small in
    while not (Ns.is_empty !rem) do
      if Ns.intersects g.simple_nb.(Ns.min_elt !rem) big then raise Found_edge;
      rem := Ns.without_min !rem
    done;
    if Ns.intersects g.complex_union small then
      for k = 0 to g.complex_words - 1 do
        let m = ref (or_over g.complex_inc g.complex_words small k) in
        while !m <> 0 do
          let e = g.complex_arr.((k * bits) + Ns.Words.lowest_bit !m) in
          if Hyperedge.connects e s1 s2 then raise Found_edge;
          m := !m land (!m - 1)
        done
      done;
    false
  with Found_edge -> true

(* Any edge connecting s1 and s2 covers nodes on both sides:
   [pair_edges] yields exactly the edges that do.  Walking the ids
   downwards builds the list in ascending order. *)
let connecting_edges g s1 s2 =
  let swap = Ns.cardinal s1 > Ns.cardinal s2 in
  let small = if swap then s2 else s1 and big = if swap then s1 else s2 in
  let acc = ref [] in
  for k = g.edge_words - 1 downto 0 do
    let m = ref (pair_edges g small big k) in
    while !m <> 0 do
      let b = Ns.Words.highest_bit !m in
      m := !m lxor (1 lsl b);
      let e = g.edges.((k * bits) + b) in
      match Hyperedge.orient e s1 s2 with
      | Some o -> acc := (e, o) :: !acc
      | None -> ()
    done
  done;
  !acc

let has_hyperedges g = g.complex <> []

(* Weak components: union-find over nodes, each edge merging all the
   relations it mentions. *)
let components g =
  let parent = Array.init g.n (fun i -> i) in
  (* find with path halving: each step links the node to its
     grandparent, flattening the tree as it walks. *)
  let find i =
    let i = ref i in
    while parent.(!i) <> !i do
      parent.(!i) <- parent.(parent.(!i));
      i := parent.(!i)
    done;
    !i
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  Array.iter
    (fun (e : Hyperedge.t) ->
      let cover = g.edge_covers.(e.id) in
      let root = Ns.min_elt cover in
      Ns.iter (fun v -> union root v) cover)
    g.edges;
  let comp = Hashtbl.create 8 in
  for i = 0 to g.n - 1 do
    let r = find i in
    let prev = Option.value ~default:Ns.empty (Hashtbl.find_opt comp r) in
    Hashtbl.replace comp r (Ns.add i prev)
  done;
  Hashtbl.fold (fun _ s acc -> s :: acc) comp []
  |> List.sort (fun a b -> Int.compare (Ns.min_elt a) (Ns.min_elt b))

let ensure_connected g =
  match components g with
  | [] | [ _ ] -> g
  | first :: rest ->
      (* Chain consecutive components with selectivity-1 cross-product
         hyperedges whose hypernodes are the full components (§2.1). *)
      let next_id = ref (Array.length g.edges) in
      let glue =
        List.rev
          (snd
             (List.fold_left
                (fun (prev, acc) comp ->
                  let e = Hyperedge.make ~id:!next_id prev comp in
                  incr next_id;
                  (comp, e :: acc))
                (first, []) rest))
      in
      make g.relations (Array.append g.edges (Array.of_list glue))

(* ---- contraction (IDP support) ------------------------------------ *)

(* A block can be contracted iff no edge straddles it: an edge whose
   cover is not fully inside the block must keep its two hypernodes on
   one side of the block boundary each, otherwise collapsing the block
   would make u and v overlap. *)
let contractible g block =
  Array.for_all
    (fun (e : Hyperedge.t) ->
      Ns.subset g.edge_covers.(e.id) block
      || not (Ns.intersects e.u block && Ns.intersects e.v block))
    g.edges

type contraction = {
  cgraph : t;
  node_of : int array;
  edge_of : int array;
}

let contract g ~block ~card ?name () =
  if Ns.cardinal block < 2 then
    invalid_arg "Graph.contract: block needs at least two nodes";
  if not (Ns.subset block (all_nodes g)) then
    invalid_arg "Graph.contract: block mentions out-of-range node";
  if not (contractible g block) then
    invalid_arg "Graph.contract: an edge straddles the block boundary";
  let b_min = Ns.min_elt block in
  (* Surviving nodes keep their relative order; the compound node sits
     where the block's minimal member was. *)
  let node_of = Array.make g.n 0 in
  let next = ref 0 in
  let b_new = ref 0 in
  for v = 0 to g.n - 1 do
    if Ns.mem v block then begin
      if v = b_min then begin
        b_new := !next;
        incr next
      end
    end
    else begin
      node_of.(v) <- !next;
      incr next
    end
  done;
  let b_new = !b_new in
  Ns.iter (fun v -> node_of.(v) <- b_new) block;
  let n' = !next in
  let map_set s = Ns.fold (fun v acc -> Ns.add node_of.(v) acc) s Ns.empty in
  let name =
    match name with
    | Some n -> n
    | None ->
        "("
        ^ String.concat "*"
            (List.rev
               (Ns.fold (fun v acc -> g.relations.(v).name :: acc) block []))
        ^ ")"
  in
  let rels = Array.make n' (base_rel "") in
  for v = 0 to g.n - 1 do
    if not (Ns.mem v block) then begin
      let r = g.relations.(v) in
      rels.(node_of.(v)) <- { r with free = map_set r.free }
    end
  done;
  let block_free =
    Ns.diff
      (Ns.fold (fun v acc -> Ns.union g.relations.(v).free acc) block Ns.empty)
      block
  in
  rels.(b_new) <- { name; card; free = map_set block_free };
  let edges' = ref [] and edge_of = ref [] in
  let next_id = ref 0 in
  Array.iter
    (fun (e : Hyperedge.t) ->
      if not (Ns.subset g.edge_covers.(e.id) block) then begin
        (* edges fully inside the block were applied by the block plan
           and disappear; every other edge survives with its sides
           mapped through [node_of] (at most one side touches the
           block, so u' and v' stay disjoint) *)
        let u = map_set e.u and v = map_set e.v in
        let w = Ns.diff (Ns.diff (map_set e.w) u) v in
        let e' =
          Hyperedge.make ~w ~op:e.op ~pred:e.pred ~sel:e.sel ~aggs:e.aggs
            ~id:!next_id u v
        in
        edges' := e' :: !edges';
        edge_of := e.id :: !edge_of;
        incr next_id
      end)
    g.edges;
  let cgraph = make rels (Array.of_list (List.rev !edges')) in
  { cgraph; node_of; edge_of = Array.of_list (List.rev !edge_of) }

let pp ppf g =
  Format.fprintf ppf "@[<v>hypergraph: %d nodes, %d edges@," g.n
    (Array.length g.edges);
  Array.iteri
    (fun i r -> Format.fprintf ppf "  R%d = %s (|%s| = %g)@," i r.name r.name r.card)
    g.relations;
  Array.iter (fun e -> Format.fprintf ppf "  %a@," Hyperedge.pp e) g.edges;
  Format.fprintf ppf "@]"
