(** Nested phase spans: wall clock + GC allocation deltas.

    A {!ctx} is a collector created around one optimizer run.  Every
    {!with_} call times a phase (parse, simplify, conflict analysis,
    enumeration, an IDP round, an adaptive tier attempt, ...),
    captures the allocation delta, records the
    completed span in the collector, and forwards it to the
    collector's {!Sink.t}.

    The instrumented libraries take the collector as an [?obs]
    {e option}: code that is not handed one runs the un-instrumented
    path and pays nothing — this is the guarantee behind the
    "observability must not perturb enumeration" tests.  Spans close
    on exceptions too (tagged with a ["raised"] attribute), so a
    budget-exhausted tier attempt still shows up in the trace. *)

type value = Sink.value = Int of int | Float of float | Str of string | Bool of bool

type ctx
(** A span collector: a sink, an epoch, and the recorded spans. *)

type t
(** An open span handle, used to attach attributes before it closes. *)

val now : unit -> float
(** The one clock every component reports from ([Unix.gettimeofday],
    seconds).  Benchmarks and pipeline profiles both use this. *)

val create : ?sink:Sink.t -> unit -> ctx
(** Fresh collector; the epoch is [now ()].  Default sink is
    {!Sink.Null} — spans are still recorded in the collector for
    profile building, just not forwarded anywhere. *)

val elapsed : ctx -> float
(** Seconds since the collector was created. *)

val spans : ctx -> Sink.span list
(** Completed spans in completion order (children before parents). *)

val with_ : ctx -> ?attrs:(string * value) list -> string -> (t -> 'a) -> 'a
(** [with_ ctx name f] runs [f] under a span called [name] nested
    inside the currently open span.  The span closes when [f]
    returns {e or raises} (the exception is re-raised after tagging
    the span with ["raised"]). *)

val set : t -> string -> value -> unit
(** Attach an attribute to an open span (e.g. counters at close). *)

val with_opt :
  ctx option -> ?attrs:(string * value) list -> string -> (t option -> 'a) -> 'a
(** [with_] through an [?obs] option: with [None] it just runs [f
    None] — the zero-cost disabled path. *)

val set_opt : t option -> string -> value -> unit
