(* Unit and property tests for Node_set and Subset_enum. *)

module Ns = Nodeset.Node_set
module Se = Nodeset.Subset_enum

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

(* ---------- Node_set basics ---------- *)

let test_empty () =
  check "empty is empty" true (Ns.is_empty Ns.empty);
  check_int "cardinal empty" 0 (Ns.cardinal Ns.empty);
  check "mem on empty" false (Ns.mem 0 Ns.empty)

let test_singleton () =
  let s = Ns.singleton 5 in
  check "mem 5" true (Ns.mem 5 s);
  check "not mem 4" false (Ns.mem 4 s);
  check_int "cardinal" 1 (Ns.cardinal s);
  check "is_singleton" true (Ns.is_singleton s);
  check "empty not singleton" false (Ns.is_singleton Ns.empty);
  check "pair not singleton" false (Ns.is_singleton (Ns.of_list [ 1; 2 ]))

let test_add_remove () =
  let s = Ns.add 3 (Ns.add 1 Ns.empty) in
  check_list "to_list" [ 1; 3 ] (Ns.to_list s);
  let s = Ns.remove 1 s in
  check_list "after remove" [ 3 ] (Ns.to_list s);
  check_list "remove absent is noop" [ 3 ] (Ns.to_list (Ns.remove 7 s))

let test_range_limits () =
  Alcotest.check_raises "singleton 1024 rejected"
    (Invalid_argument "Node_set: node 1024 out of range [0,1024)") (fun () ->
      ignore (Ns.singleton 1024));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Node_set: node -1 out of range [0,1024)") (fun () ->
      ignore (Ns.add (-1) Ns.empty));
  check_int "node 61 ok" 61 (Ns.min_elt (Ns.singleton 61));
  (* 62 used to be rejected; it now routes to the wide path *)
  check_int "node 62 ok" 62 (Ns.min_elt (Ns.singleton 62))

(* The 61/62/63 boundary: 61 is the last single-word node, 62 the
   first that must widen, and nothing may ever truncate. *)
let test_width_boundary () =
  let s61 = Ns.singleton 61 in
  check "61 fits small" true (Ns.fits_small s61);
  check "61 small repr" false (Ns.Internal.is_wide_repr s61);
  let s62 = Ns.singleton 62 in
  check "62 wide repr" true (Ns.Internal.is_wide_repr s62);
  check "62 does not fit small" false (Ns.fits_small s62);
  check "mem 62" true (Ns.mem 62 s62);
  check_int "cardinal s62" 1 (Ns.cardinal s62);
  (* add across the boundary widens in place, keeping low members *)
  let s = Ns.add 62 (Ns.of_list [ 0; 61 ]) in
  check "add 62 widens" true (Ns.Internal.is_wide_repr s);
  check_list "members kept" [ 0; 61; 62 ] (Ns.to_list s);
  let s63 = Ns.add 63 s in
  check "mem 63" true (Ns.mem 63 s63);
  check_int "cardinal after 63" 4 (Ns.cardinal s63);
  check_int "max_elt 63" 63 (Ns.max_elt s63);
  (* full at the boundary: 62 still fills the single word exactly *)
  let f62 = Ns.full 62 in
  check "full 62 small" false (Ns.Internal.is_wide_repr f62);
  check_int "full 62 cardinal" 62 (Ns.cardinal f62);
  check_int "full 62 max" 61 (Ns.max_elt f62);
  (* full 63 must widen and must NOT truncate to 62 members *)
  let f63 = Ns.full 63 in
  check "full 63 wide" true (Ns.Internal.is_wide_repr f63);
  check_int "full 63 cardinal" 63 (Ns.cardinal f63);
  check_int "full 63 max" 62 (Ns.max_elt f63);
  check "full 62 subset of full 63" true (Ns.subset f62 f63);
  check_list "diff full63 full62" [ 62 ] (Ns.to_list (Ns.diff f63 f62));
  (* equality/hash are value-based, independent of representation *)
  let w61 = Ns.Internal.force_wide s61 in
  check "forced-wide is wide" true (Ns.Internal.is_wide_repr w61);
  check "equal across reprs" true (Ns.equal s61 w61);
  check_int "compare across reprs" 0 (Ns.compare s61 w61);
  check_int "hash across reprs" (Ns.hash s61) (Ns.hash w61)

let test_min_max () =
  let s = Ns.of_list [ 4; 9; 17 ] in
  check_int "min" 4 (Ns.min_elt s);
  check_int "max" 17 (Ns.max_elt s);
  check_list "min_set" [ 4 ] (Ns.to_list (Ns.min_set s));
  check_list "without_min" [ 9; 17 ] (Ns.to_list (Ns.without_min s));
  check "min_elt_opt empty" true (Ns.min_elt_opt Ns.empty = None);
  Alcotest.check_raises "min_elt empty" Not_found (fun () ->
      ignore (Ns.min_elt Ns.empty))

let test_full_range () =
  check_list "full 3" [ 0; 1; 2 ] (Ns.to_list (Ns.full 3));
  check_int "full 0" 0 (Ns.cardinal (Ns.full 0));
  check_list "range 2 4" [ 2; 3; 4 ] (Ns.to_list (Ns.range 2 4));
  check "range hi<lo empty" true (Ns.is_empty (Ns.range 4 2));
  check_list "below 3" [ 0; 1; 2 ] (Ns.to_list (Ns.below 3));
  check_list "upto 2" [ 0; 1; 2 ] (Ns.to_list (Ns.upto 2))

let test_set_algebra () =
  let a = Ns.of_list [ 0; 2; 4 ] and b = Ns.of_list [ 2; 3 ] in
  check_list "union" [ 0; 2; 3; 4 ] (Ns.to_list (Ns.union a b));
  check_list "inter" [ 2 ] (Ns.to_list (Ns.inter a b));
  check_list "diff" [ 0; 4 ] (Ns.to_list (Ns.diff a b));
  check "subset refl" true (Ns.subset a a);
  check "strict_subset irrefl" false (Ns.strict_subset a a);
  check "subset of union" true (Ns.subset a (Ns.union a b));
  check "disjoint" true (Ns.disjoint (Ns.of_list [ 0 ]) (Ns.of_list [ 1 ]));
  check "intersects" true (Ns.intersects a b)

let test_iter_order () =
  let s = Ns.of_list [ 7; 1; 30 ] in
  let asc = ref [] in
  Ns.iter (fun v -> asc := v :: !asc) s;
  check_list "iter ascending" [ 1; 7; 30 ] (List.rev !asc);
  let desc = ref [] in
  Ns.iter_desc (fun v -> desc := v :: !desc) s;
  check_list "iter_desc descending" [ 30; 7; 1 ] (List.rev !desc)

let test_predicates () =
  let s = Ns.of_list [ 2; 4; 6 ] in
  check "for_all even" true (Ns.for_all (fun v -> v mod 2 = 0) s);
  check "exists >5" true (Ns.exists (fun v -> v > 5) s);
  check "exists >6" false (Ns.exists (fun v -> v > 6) s);
  check_list "filter >3" [ 4; 6 ] (Ns.to_list (Ns.filter (fun v -> v > 3) s))

let test_pp () =
  Alcotest.(check string) "pp" "{R0,R3}" (Ns.to_string (Ns.of_list [ 0; 3 ]));
  Alcotest.(check string) "pp empty" "{}" (Ns.to_string Ns.empty)

(* ---------- properties against a list model ---------- *)

let small_set = QCheck.map Ns.of_list QCheck.(small_list (int_bound 20))

let prop_union_model =
  QCheck.Test.make ~name:"union matches list model" ~count:500
    (QCheck.pair small_set small_set) (fun (a, b) ->
      Ns.to_list (Ns.union a b)
      = List.sort_uniq compare (Ns.to_list a @ Ns.to_list b))

let prop_inter_model =
  QCheck.Test.make ~name:"inter matches list model" ~count:500
    (QCheck.pair small_set small_set) (fun (a, b) ->
      Ns.to_list (Ns.inter a b)
      = List.filter (fun v -> List.mem v (Ns.to_list b)) (Ns.to_list a))

let prop_diff_model =
  QCheck.Test.make ~name:"diff matches list model" ~count:500
    (QCheck.pair small_set small_set) (fun (a, b) ->
      Ns.to_list (Ns.diff a b)
      = List.filter (fun v -> not (List.mem v (Ns.to_list b))) (Ns.to_list a))

let prop_cardinal =
  QCheck.Test.make ~name:"cardinal = list length" ~count:500 small_set
    (fun s -> Ns.cardinal s = List.length (Ns.to_list s))

let prop_min_is_first =
  QCheck.Test.make ~name:"min_elt = head of to_list" ~count:500 small_set
    (fun s ->
      Ns.is_empty s || Ns.min_elt s = List.hd (Ns.to_list s))

let prop_fold_sum =
  QCheck.Test.make ~name:"fold visits each member once" ~count:500 small_set
    (fun s ->
      Ns.fold (fun v acc -> acc + v) s 0
      = List.fold_left ( + ) 0 (Ns.to_list s))

(* [Words] is the raw view the edge-id bitsets of [Hypergraph.Graph]
   are walked with: reading the members back word by word, lowest bit
   first or highest bit first, gives the set in either order, for
   single-word, forced-wide and genuinely wide values alike. *)
let members_of_words ~desc s =
  let acc = ref [] and n = Ns.Words.count s in
  for i = 0 to n - 1 do
    let k = if desc then n - 1 - i else i in
    let m = ref (Ns.Words.get s k) in
    while !m <> 0 do
      let b =
        if desc then Ns.Words.highest_bit !m else Ns.Words.lowest_bit !m
      in
      m := !m land lnot (1 lsl b);
      acc := ((k * Ns.Words.bits) + b) :: !acc
    done
  done;
  if desc then !acc else List.rev !acc

let prop_words_model =
  QCheck.Test.make ~name:"Words read back every member, small and wide"
    ~count:500
    QCheck.(small_list (int_bound 300))
    (fun vs ->
      let wide = Ns.of_list vs in
      let small = Ns.of_list (List.filter (fun v -> v < Ns.small_capacity) vs) in
      List.for_all
        (fun s ->
          members_of_words ~desc:false s = Ns.to_list s
          && members_of_words ~desc:true s = Ns.to_list s
          && Ns.Words.get s (Ns.Words.count s) = 0)
        [ wide; small; Ns.Internal.force_wide small ])

(* ---------- Subset_enum ---------- *)

let test_subsets_count () =
  let m = Ns.of_list [ 1; 3; 5; 9 ] in
  check_int "2^4-1 subsets" 15 (List.length (Se.to_list_nonempty m));
  check_int "proper excludes mask" 14
    (let n = ref 0 in
     Se.iter_proper_nonempty m (fun _ -> incr n);
     !n);
  check_int "iter_all includes empty" 16
    (let n = ref 0 in
     Se.iter_all m (fun _ -> incr n);
     !n)

let test_subsets_empty_mask () =
  check_int "no nonempty subsets of empty" 0
    (List.length (Se.to_list_nonempty Ns.empty))

let test_subsets_increasing () =
  let m = Ns.of_list [ 0; 2; 7 ] in
  let l = List.map Ns.to_int (Se.to_list_nonempty m) in
  check "increasing numeric order" true (List.sort compare l = l)

let test_exists_nonempty () =
  let m = Ns.of_list [ 1; 2; 3 ] in
  check "exists pair" true
    (Se.exists_nonempty m (fun s -> Ns.cardinal s = 3));
  check "no 4-subset" false (Se.exists_nonempty m (fun s -> Ns.cardinal s = 4))

let prop_subsets_are_subsets =
  QCheck.Test.make ~name:"every enumerated set is a distinct subset"
    ~count:200 small_set (fun m ->
      QCheck.assume (Ns.cardinal m <= 12);
      let l = Se.to_list_nonempty m in
      List.for_all (fun s -> Ns.subset s m && not (Ns.is_empty s)) l
      && List.length (List.sort_uniq compare (List.map Ns.to_int l))
         = List.length l
      && List.length l = (1 lsl Ns.cardinal m) - 1)

let prop_count =
  QCheck.Test.make ~name:"count matches filter" ~count:200 small_set (fun m ->
      QCheck.assume (Ns.cardinal m <= 10);
      Se.count m (fun s -> Ns.cardinal s mod 2 = 0)
      = List.length
          (List.filter
             (fun s -> Ns.cardinal s mod 2 = 0)
             (Se.to_list_nonempty m)))

(* ---------- Lattice: rank-indexed subset addressing ---------- *)

let test_lattice_contiguous () =
  let l = Se.Lattice.make (Ns.full 4) in
  check_int "bits" 4 (Se.Lattice.bits l);
  check_int "size" 16 (Se.Lattice.size l);
  (* contiguous universe: index = raw bit pattern *)
  check_int "index is bit pattern" 0b1010
    (Se.Lattice.index_of l (Ns.of_list [ 1; 3 ]));
  check_list "of_index inverse" [ 1; 3 ]
    (Ns.to_list (Se.Lattice.of_index l 0b1010))

let test_lattice_sparse () =
  (* universe {2,5,9}: bit j of the index selects the j-th smallest *)
  let l = Se.Lattice.make (Ns.of_list [ 2; 5; 9 ]) in
  check_int "size" 8 (Se.Lattice.size l);
  check_int "index of {5}" 0b010 (Se.Lattice.index_of l (Ns.singleton 5));
  check_int "index of {2,9}" 0b101 (Se.Lattice.index_of l (Ns.of_list [ 2; 9 ]));
  check_list "of_index 0b110" [ 5; 9 ] (Ns.to_list (Se.Lattice.of_index l 0b110));
  Alcotest.check_raises "non-subset rejected"
    (Invalid_argument
       "Subset_enum.Lattice.index_of: not a subset of the universe") (fun () ->
      ignore (Se.Lattice.index_of l (Ns.singleton 3)))

let test_lattice_rank_iter () =
  let l = Se.Lattice.make (Ns.of_list [ 0; 1; 2; 3; 4 ]) in
  let seen = ref [] in
  Se.Lattice.iter_rank l ~rank:2 (fun i s -> seen := (i, Ns.to_list s) :: !seen);
  let seen = List.rev !seen in
  check_int "C(5,2) subsets" 10 (List.length seen);
  let idxs = List.map fst seen in
  check "increasing index order" true (List.sort compare idxs = idxs);
  check "all rank 2" true (List.for_all (fun (_, s) -> List.length s = 2) seen);
  (* rank 0 is the empty set at index 0, rank k the universe *)
  Se.Lattice.iter_rank l ~rank:0 (fun i s ->
      check_int "rank-0 index" 0 i;
      check "rank-0 set empty" true (Ns.is_empty s));
  Se.Lattice.iter_rank l ~rank:5 (fun i s ->
      check_int "rank-5 index" 31 i;
      check "rank-5 full" true (Ns.equal s (Se.Lattice.universe l)))

(* Small-vs-forced-wide oracle (PR 7 style): the lattice addressing
   must be representation-independent — building the structure and
   running every conversion with all constructors forced to the wide
   representation must give value-identical results to the small
   path. *)
let prop_lattice_wide_oracle =
  QCheck.Test.make ~name:"lattice small vs forced-wide oracle" ~count:200
    QCheck.(small_list (int_bound 20))
    (fun univ ->
      let univ = List.sort_uniq compare univ in
      QCheck.assume (List.length univ <= 10);
      let run () =
        let l = Se.Lattice.make (Ns.of_list univ) in
        let k = Se.Lattice.bits l in
        (* every index round-trips; collect rank layers *)
        let round =
          List.init (Se.Lattice.size l) (fun i ->
              let s = Se.Lattice.of_index l i in
              (i, Ns.to_list s, Se.Lattice.index_of l s))
        in
        let layers =
          List.init (k + 1) (fun r ->
              let acc = ref [] in
              Se.Lattice.iter_rank l ~rank:r (fun i s ->
                  acc := (i, Ns.to_list s) :: !acc);
              List.rev !acc)
        in
        (round, layers)
      in
      let small = run () in
      let wide = Ns.Internal.with_force_wide run in
      let round, layers = small in
      List.for_all (fun (i, _, i') -> i = i') round
      && small = wide
      && List.concat_map (fun l -> l) layers
         |> List.map fst
         |> List.sort compare
         = List.init (List.length round) (fun i -> i))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "nodeset"
    [
      ( "node_set",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "add_remove" `Quick test_add_remove;
          Alcotest.test_case "range_limits" `Quick test_range_limits;
          Alcotest.test_case "width_boundary" `Quick test_width_boundary;
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "full_range" `Quick test_full_range;
          Alcotest.test_case "set_algebra" `Quick test_set_algebra;
          Alcotest.test_case "iter_order" `Quick test_iter_order;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "node_set_properties",
        [
          q prop_union_model;
          q prop_inter_model;
          q prop_diff_model;
          q prop_cardinal;
          q prop_min_is_first;
          q prop_fold_sum;
          q prop_words_model;
        ] );
      ( "subset_enum",
        [
          Alcotest.test_case "count" `Quick test_subsets_count;
          Alcotest.test_case "empty mask" `Quick test_subsets_empty_mask;
          Alcotest.test_case "increasing" `Quick test_subsets_increasing;
          Alcotest.test_case "exists" `Quick test_exists_nonempty;
          q prop_subsets_are_subsets;
          q prop_count;
        ] );
      ( "lattice",
        [
          Alcotest.test_case "contiguous" `Quick test_lattice_contiguous;
          Alcotest.test_case "sparse" `Quick test_lattice_sparse;
          Alcotest.test_case "rank_iter" `Quick test_lattice_rank_iter;
          q prop_lattice_wide_oracle;
        ] );
    ]
