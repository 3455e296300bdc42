module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

type t = { set : Ns.t; card : float; cost : float; tree : tree }

and tree = Scan of int | Join of join | Compound of compound

and join = {
  op : Relalg.Operator.t;
  edge_ids : int list;
  sel : float;
  left : t;
  right : t;
}

and compound = { node : int; sub : t }

let scan g i =
  { set = Ns.singleton i; card = G.cardinality g i; cost = 0.0; tree = Scan i }

let materialized i sub =
  {
    set = Ns.singleton i;
    card = sub.card;
    cost = sub.cost;
    tree = Compound { node = i; sub };
  }

let[@inline] join_cost (model : Costing.Cost_model.t) ~op left right ~card =
  left.cost +. right.cost
  +. model.op_cost op ~left_card:left.card ~right_card:right.card
       ~out_card:card

let join_of ~op ~edge_ids ~sel ~card ~cost left right =
  {
    set = Ns.union left.set right.set;
    card;
    cost;
    tree = Join { op; edge_ids; sel; left; right };
  }

let join model ~op ~edge_ids ~sel left right =
  let card = Costing.Cardinality.estimate op left.card right.card sel in
  let cost = join_cost model ~op left right ~card in
  join_of ~op ~edge_ids ~sel ~card ~cost left right

let rec num_joins p =
  match p.tree with
  | Scan _ -> 0
  | Compound c -> num_joins c.sub
  | Join j -> 1 + num_joins j.left + num_joins j.right

let leaves p =
  let rec go acc p =
    match p.tree with
    | Scan i -> i :: acc
    | Compound c -> go acc c.sub
    | Join j -> go (go acc j.right) j.left
  in
  go [] p

let rec is_left_deep p =
  match p.tree with
  | Scan _ | Compound _ -> true
  | Join j -> (
      match j.right.tree with
      | Scan _ | Compound _ -> is_left_deep j.left
      | Join _ -> false)

let rec shape_equal a b =
  match a.tree, b.tree with
  | Scan i, Scan k -> i = k
  | Compound x, Compound y -> x.node = y.node && shape_equal x.sub y.sub
  | Join x, Join y ->
      Relalg.Operator.equal x.op y.op
      && shape_equal x.left y.left && shape_equal x.right y.right
  | (Scan _ | Join _ | Compound _), _ -> false

(* Per-node cardinality annotations, postorder (children before
   parents) — the estimate side of EXPLAIN ANALYZE.  Keyed by the
   relation set, which is also T(subtree) of the emitted operator
   tree, so executed row counts join against these exactly. *)
let estimates p =
  let out = ref [] in
  let rec walk p =
    (match p.tree with
    | Scan _ | Compound _ -> ()
    | Join j ->
        walk j.left;
        walk j.right);
    out := (p.set, p.card) :: !out
  in
  walk p;
  List.rev !out

let to_optree g p =
  let rec go p =
    match p.tree with
    | Scan i ->
        let r = G.relation g i in
        Relalg.Optree.leaf ~free:r.G.free i r.G.name
    | Compound _ ->
        (* a compound leaf's sub-plan lives over a different (finer)
           graph; flatten the plan first (see Idp) *)
        invalid_arg "Plan.to_optree: plan contains an unflattened compound leaf"
    | Join j ->
        let edges = List.map (G.edge g) j.edge_ids in
        let pred =
          Relalg.Predicate.conj
            (List.filter_map
               (fun (e : He.t) ->
                 match e.pred with Relalg.Predicate.True_ -> None | p -> Some p)
               edges)
        in
        let aggs = List.concat_map (fun (e : He.t) -> e.aggs) edges in
        Relalg.Optree.op ~aggs j.op pred (go j.left) (go j.right)
  in
  go p

let rec pp ppf p =
  match p.tree with
  | Scan i -> Format.fprintf ppf "R%d" i
  | Compound c -> Format.fprintf ppf "[%a]" pp c.sub
  | Join j ->
      Format.fprintf ppf "(%a %s %a)" pp j.left (Relalg.Operator.symbol j.op)
        pp j.right

let pp_verbose g ppf p =
  let rec go indent p =
    let pad = String.make indent ' ' in
    match p.tree with
    | Scan i ->
        Format.fprintf ppf "%sscan %s (card=%.0f)@\n" pad (G.relation g i).G.name
          p.card
    | Compound c ->
        (* the sub-plan numbers its scans in its own graph, so print it
           with the graph-independent renderer *)
        Format.fprintf ppf "%smaterialized %a (card=%.1f, cost=%.1f)@\n" pad pp
          c.sub p.card p.cost
    | Join j ->
        Format.fprintf ppf "%s%s (card=%.1f, cost=%.1f, edges=[%s])@\n" pad
          (Relalg.Operator.symbol j.op) p.card p.cost
          (String.concat ";" (List.map string_of_int j.edge_ids));
        go (indent + 2) j.left;
        go (indent + 2) j.right
  in
  go 0 p

let to_string p = Format.asprintf "%a" pp p
