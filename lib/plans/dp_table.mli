(** The dynamic programming table: best plan per connected node set.

    Presence of an entry doubles as the connectivity test in every
    algorithm (Section 3.2: "This is done by a lookup into the
    dpTable"), exploiting that DP enumerates subsets before supersets.
    Section 3.6 notes all DP variants memoize the same entries; DPsize
    additionally needs plans bucketed by size, which {!iter_size}
    provides via per-size index lists.

    For queries of up to 18 relations the table is backed by a flat
    array indexed directly by the bit pattern of the node set, so the
    per-pair lookups are single array probes; larger queries fall back
    to a hash table.  The switchover is invisible to callers. *)

type t

type event =
  | Installed  (** first plan seen for its node set *)
  | Displaced of Plan.t
      (** strictly cheaper than the previous champion (the argument) *)
  | Rejected of Plan.t
      (** not cheaper than the incumbent (the argument); table
          unchanged *)
(** Outcome of one {!update}, as seen by a provenance {!hook}. *)

type hook = Plan.t -> event -> unit
(** Update observer: called with the candidate plan and what happened
    to it.  {!force} (leaf initialization) is deliberately unhooked —
    champion history is about csg-cmp-pair decisions. *)

val set_hook : t -> hook option -> unit
(** Attach (or clear) the table's update observer.  With no hook —
    the default — [update] costs one extra load-and-branch per
    outcome and allocates nothing. *)

val with_create_observer : (t -> unit) -> (unit -> 'a) -> 'a
(** [with_create_observer f body] runs [body] with [f] invoked on
    every table {!create}d during it (the previous observer is
    restored on exit).  This is how a provenance recorder attaches to
    the tables an optimizer run builds internally (per-block, per-IDP
    round) without any algorithm threading a parameter.  Ambient,
    single-domain only — the parallel enumerator refuses to run under
    it. *)

val with_context : string -> (unit -> 'a) -> 'a
(** [with_context label body] sets the ambient table-context label for
    the duration of [body] (restored on exit).  Algorithm layers use
    it to tell a provenance observer {e which} table is being filled:
    ["tier:exact"], ["partition:block:R3"], ["idp:round:2"], ... *)

val current_context : unit -> string
(** The ambient context label ([""] outside any {!with_context}). *)

val create : ?hint:int -> int -> t
(** [create n] — table for an [n]-relation query.  [?hint] pre-sizes
    the hash-table backing with the expected number of entries
    (connected subgraphs); ignored on the flat path ([n] small
    enough), where sizing is exact by construction. *)

val create_for : Hypergraph.Graph.t -> t
(** Table sized for a specific query: flat for small [n]; beyond the
    flat limit, the hash backing is pre-sized from
    {!Hypergraph.Csg_enum.estimate_connected_subgraphs} so filling it
    does not rehash on the common shapes. *)

val hash_stats : t -> (int * int) option
(** [(buckets, bindings)] of the hash backing; [None] on the flat
    path.  Lets tests assert the pre-sizing really prevents
    resizes. *)

val find : t -> Nodeset.Node_set.t -> Plan.t option

val mem : t -> Nodeset.Node_set.t -> bool

val update : t -> Plan.t -> bool
(** Keep the plan if no entry exists for its set or it is cheaper;
    returns [true] if the table changed. *)

val admits : t -> Nodeset.Node_set.t -> float -> bool
(** [admits t s cost]: would {!update} with a plan over [s] costing
    [cost] change the table or reach a hook?  True when [s] has no
    entry, when [cost] is strictly lower than the incumbent's, and
    always while a hook is installed (so a hook still sees every
    rejected candidate).  Lets callers skip building plans that would
    be rejected. *)

val force : t -> Plan.t -> unit
(** Unconditionally install the plan (initialization of leaf plans). *)

val size : t -> int
(** Number of entries — the number of connected subgraphs discovered
    so far. *)

val iter : (Plan.t -> unit) -> t -> unit

val iter_size : t -> int -> (Plan.t -> unit) -> unit
(** Iterate the entries covering exactly [k] relations (DPsize's plan
    buckets). *)

val sets_of_size : t -> int -> Nodeset.Node_set.t list

val best : t -> Nodeset.Node_set.t -> Plan.t
(** @raise Not_found if the set has no plan (query disconnected or
    algorithm incomplete — a bug either way). *)
