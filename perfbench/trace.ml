(* In-memory spans for the traced run.  A span is recorded around each
   call the benchmark makes into a layer; spans of one request share the
   request's id, and each span names the span that caused it.  Nothing
   is written until [write] at exit. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  req : int;
  name : string;
  mutable tag : string;  (** set from inside the span, e.g. a cache outcome *)
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
}

type t = {
  enabled : bool;  (** false: every call runs, nothing is recorded *)
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : span list;
  mutable req : int;
}

let create ?(enabled = true) () = { enabled; spans = []; next = 0; stack = []; req = -1 }

let now = Unix.gettimeofday

(* Per-domain allocation pointer: exact, and unlike [Gc.quick_stat] it
   does not fold in the counts of terminated domains. *)
let words = Gc.minor_words

let with_span tr name f =
  if not tr.enabled then f ()
  else
  let parent = match tr.stack with p :: _ -> p.id | [] -> -1 in
  let id = tr.next in
  tr.next <- id + 1;
  let sp =
    { id; parent; req = tr.req; name; tag = ""; t0 = now (); t1 = 0.; w0 = words (); w1 = 0. }
  in
  tr.spans <- sp :: tr.spans;
  tr.stack <- sp :: tr.stack;
  Fun.protect
    ~finally:(fun () ->
      sp.w1 <- words ();
      sp.t1 <- now ();
      tr.stack <- List.tl tr.stack)
    f

let tag tr v = match tr.stack with sp :: _ -> sp.tag <- v | [] -> ()

let key sp = if sp.tag = "" then sp.name else sp.name ^ ":" ^ sp.tag

(* One root span per request. *)
let request tr req f =
  tr.req <- req;
  with_span tr "request" f

let dur sp = sp.t1 -. sp.t0

type totals = {
  mutable self_s : float;
  mutable self_words : float;
  mutable total_s : float;
  mutable calls : int;
}

(* Self time and self allocation per span name (and tag, as
   "name:tag"): a span's duration minus the part its child spans
   cover. *)
let totals tr =
  let child_s = Hashtbl.create 1024 and child_w = Hashtbl.create 1024 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl sp.parent
            (v +. Option.value (Hashtbl.find_opt tbl sp.parent) ~default:0.)
        in
        add child_s (dur sp);
        add child_w (sp.w1 -. sp.w0)
      end)
    tr.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let t =
        match Hashtbl.find_opt by_name (key sp) with
        | Some t -> t
        | None ->
            let t = { self_s = 0.; self_words = 0.; total_s = 0.; calls = 0 } in
            Hashtbl.replace by_name (key sp) t;
            t
      in
      let get tbl = Option.value (Hashtbl.find_opt tbl sp.id) ~default:0. in
      t.self_s <- t.self_s +. dur sp -. get child_s;
      t.self_words <- t.self_words +. (sp.w1 -. sp.w0) -. get child_w;
      t.total_s <- t.total_s +. dur sp;
      t.calls <- t.calls + 1)
    tr.spans;
  by_name

let find totals name =
  match Hashtbl.find_opt totals name with
  | Some t -> t
  | None -> { self_s = 0.; self_words = 0.; total_s = 0.; calls = 0 }

(* Time the layer spans directly under the request roots account for. *)
let layer_time tr =
  let roots = Hashtbl.create 1024 in
  List.iter
    (fun sp -> if sp.parent < 0 && sp.name = "request" then Hashtbl.replace roots sp.id ())
    tr.spans;
  List.fold_left
    (fun acc sp -> if Hashtbl.mem roots sp.parent then acc +. dur sp else acc)
    0. tr.spans

(* One JSON object per span, oldest first. *)
let write tr path =
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"tag\":%S,\"start_s\":%.9f,\
         \"dur_s\":%.9f,\"minor_words\":%.0f}\n"
        sp.id sp.parent sp.req sp.name sp.tag sp.t0 (dur sp) (sp.w1 -. sp.w0))
    (List.rev tr.spans);
  close_out oc
