module Ns = Nodeset.Node_set

(* Two backings behind one interface.  For small queries the table is
   a flat array indexed directly by the bit pattern of the node set,
   so [find]/[mem]/[update] — executed once or more per considered
   csg-cmp-pair — are single array probes with no hashing.  Beyond
   [flat_max_nodes] it falls back to the hash table: 2^18 option slots
   cost ~2 MB and fill in microseconds at [create] time, while 2^n
   beyond that starts to rival the enumeration itself. *)

let flat_max_nodes = 18

(* Wide queries key the hash on the node set itself: [Ns.hash] and
   [Ns.equal] are value-based, so the table is oblivious to which
   representation a set arrived in. *)
module NsTbl = Hashtbl.Make (struct
  type t = Ns.t

  let equal = Ns.equal
  let hash = Ns.hash
end)

type store =
  | Flat of Plan.t option array
  | Hashed of (int, Plan.t) Hashtbl.t
  | Wide of Plan.t NsTbl.t

type event = Installed | Displaced of Plan.t | Rejected of Plan.t

type hook = Plan.t -> event -> unit

type t = {
  store : store;
  mutable entries : int;
  by_size : Ns.t list array;  (* index [k]: sets of cardinality k, insertion order *)
  mutable hook : hook option;
      (* provenance observer; [None] (the default) keeps [update] on
         its historical fast path — one extra load-and-branch per
         outcome, no allocation *)
}

(* Ambient provenance wiring.  The inspect layer installs a creation
   observer around a whole optimizer run so that every table the run
   builds (the main memo, per-block tables, IDP round tables) attaches
   its own update hook without any algorithm threading a parameter;
   [with_context] lets the algorithm layers label which table is
   active (tier, block, round) for the same observer.  Plain refs:
   provenance recording is a single-domain affair (the parallel
   enumerator refuses it), so no synchronization is needed. *)

let create_observer : (t -> unit) option ref = ref None

let context_label = ref ""

let with_create_observer f body =
  let saved = !create_observer in
  create_observer := Some f;
  Fun.protect ~finally:(fun () -> create_observer := saved) body

let with_context label body =
  let saved = !context_label in
  context_label := label;
  Fun.protect ~finally:(fun () -> context_label := saved) body

let current_context () = !context_label

let set_hook t h = t.hook <- h

let[@inline] notify_install t p =
  match t.hook with None -> () | Some f -> f p Installed

let[@inline] notify_displace t p old =
  match t.hook with None -> () | Some f -> f p (Displaced old)

let[@inline] notify_reject t p old =
  match t.hook with None -> () | Some f -> f p (Rejected old)

let create ?hint n =
  let cap = match hint with None -> 1024 | Some h -> max 16 h in
  let store =
    if n <= flat_max_nodes then Flat (Array.make (1 lsl n) None)
    else if n <= Ns.small_capacity then
      (* OCaml's Hashtbl resizes once the load factor passes 2, so a
         bucket count of half the expected entries already avoids
         every rehash; creating with the full hint leaves headroom
         for the estimate being low. *)
      Hashed (Hashtbl.create cap)
    else Wide (NsTbl.create cap)
  in
  let t = { store; entries = 0; by_size = Array.make (n + 1) []; hook = None } in
  (match !create_observer with None -> () | Some f -> f t);
  t

let create_for g =
  let n = Hypergraph.Graph.num_nodes g in
  if n <= flat_max_nodes then create n
  else create ~hint:(Hypergraph.Csg_enum.estimate_connected_subgraphs g) n

let hash_stats t =
  match t.store with
  | Flat _ -> None
  | Hashed h ->
      let s = Hashtbl.stats h in
      Some (s.Hashtbl.num_buckets, s.Hashtbl.num_bindings)
  | Wide h ->
      let s = NsTbl.stats h in
      Some (s.Hashtbl.num_buckets, s.Hashtbl.num_bindings)

let find t s =
  match t.store with
  | Flat a -> a.(Ns.to_int s)
  | Hashed h -> Hashtbl.find_opt h (Ns.to_int s)
  | Wide h -> NsTbl.find_opt h s

let mem t s =
  match t.store with
  | Flat a -> ( match a.(Ns.to_int s) with None -> false | Some _ -> true)
  | Hashed h -> Hashtbl.mem h (Ns.to_int s)
  | Wide h -> NsTbl.mem h s

let register_size t s =
  let k = Ns.cardinal s in
  t.by_size.(k) <- s :: t.by_size.(k)

let update t (p : Plan.t) =
  match t.store with
  | Flat a -> (
      let key = Ns.to_int p.set in
      match a.(key) with
      | None ->
          a.(key) <- Some p;
          t.entries <- t.entries + 1;
          register_size t p.set;
          notify_install t p;
          true
      | Some old ->
          if p.cost < old.cost then begin
            a.(key) <- Some p;
            notify_displace t p old;
            true
          end
          else begin
            notify_reject t p old;
            false
          end)
  | Hashed h -> (
      let key = Ns.to_int p.set in
      match Hashtbl.find_opt h key with
      | None ->
          Hashtbl.replace h key p;
          t.entries <- t.entries + 1;
          register_size t p.set;
          notify_install t p;
          true
      | Some old ->
          if p.cost < old.cost then begin
            Hashtbl.replace h key p;
            notify_displace t p old;
            true
          end
          else begin
            notify_reject t p old;
            false
          end)
  | Wide h -> (
      match NsTbl.find_opt h p.set with
      | None ->
          NsTbl.replace h p.set p;
          t.entries <- t.entries + 1;
          register_size t p.set;
          notify_install t p;
          true
      | Some old ->
          if p.cost < old.cost then begin
            NsTbl.replace h p.set p;
            notify_displace t p old;
            true
          end
          else begin
            notify_reject t p old;
            false
          end)

(* The cost-first emitter asks this before allocating a candidate.  A
   hook observes every candidate, rejected ones included, so with one
   installed everything is admitted. *)
let admits t s cost =
  match t.hook with
  | Some _ -> true
  | None -> (
      match t.store with
      | Flat a -> (
          match a.(Ns.to_int s) with
          | None -> true
          | Some (old : Plan.t) -> cost < old.cost)
      | Hashed h -> (
          match Hashtbl.find h (Ns.to_int s) with
          | (old : Plan.t) -> cost < old.cost
          | exception Not_found -> true)
      | Wide h -> (
          match NsTbl.find h s with
          | (old : Plan.t) -> cost < old.cost
          | exception Not_found -> true))

let force t (p : Plan.t) =
  match t.store with
  | Flat a ->
      let key = Ns.to_int p.set in
      (match a.(key) with
      | None ->
          t.entries <- t.entries + 1;
          register_size t p.set
      | Some _ -> ());
      a.(key) <- Some p
  | Hashed h ->
      let key = Ns.to_int p.set in
      if not (Hashtbl.mem h key) then begin
        t.entries <- t.entries + 1;
        register_size t p.set
      end;
      Hashtbl.replace h key p
  | Wide h ->
      if not (NsTbl.mem h p.set) then begin
        t.entries <- t.entries + 1;
        register_size t p.set
      end;
      NsTbl.replace h p.set p

let size t = t.entries

let iter f t =
  match t.store with
  | Flat a -> Array.iter (function None -> () | Some p -> f p) a
  | Hashed h -> Hashtbl.iter (fun _ p -> f p) h
  | Wide h -> NsTbl.iter (fun _ p -> f p) h

let sets_of_size t k = if k < Array.length t.by_size then t.by_size.(k) else []

let iter_size t k f =
  List.iter
    (fun s ->
      match find t s with
      | Some p -> f p
      | None -> assert false)
    (sets_of_size t k)

let best t s =
  match find t s with Some p -> p | None -> raise Not_found
