(** Sets of query-graph nodes behind a width-polymorphic bitset.

    A node is a small non-negative integer (the index of a relation in
    the query).  Sets over nodes [0, 62) live in a single unboxed
    OCaml [int] — bit-for-bit the representation the DP hot paths were
    tuned on — while larger sets transparently switch to a multi-word
    representation, lifting the historic 62-relation ceiling up to
    {!max_nodes} relations.  Which representation a value uses is
    unobservable through this interface: [equal], [compare] and [hash]
    are value-based and agree across representations.

    The total node order [<=] required by DPhyp (Definition 1 of the
    paper) is the natural order on indices; [min_elt] therefore
    returns the canonical representative [min(S)] used for hypernode
    traversal (Section 2.3). *)

type t
(** A set of nodes.  Either an immediate [int] whose [i]-th bit is set
    iff node [i] is a member (all sets over nodes < {!small_capacity}
    constructed from small sets), or a boxed array of 62-bit words for
    wider sets. *)

type node = int
(** A node index in [0, max_nodes). *)

val max_nodes : int
(** Maximum number of distinct nodes supported (1024). *)

val small_capacity : int
(** Width of the single-word fast path (62): sets touching only nodes
    below this stay unboxed immediates, and graphs with at most this
    many relations run the exact same representation as before the
    widening. *)

val empty : t
(** The empty set. *)

val is_empty : t -> bool

val singleton : node -> t
(** [singleton v] is [{v}].  @raise Invalid_argument if [v] is out of
    range. *)

val mem : node -> t -> bool

val add : node -> t -> t

val remove : node -> t -> t

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t
(** [diff a b] is [a \ b]. *)

val subset : t -> t -> bool
(** [subset a b] iff [a ⊆ b]. *)

val strict_subset : t -> t -> bool
(** [strict_subset a b] iff [a ⊂ b]. *)

val disjoint : t -> t -> bool
(** [disjoint a b] iff [a ∩ b = ∅]. *)

val intersects : t -> t -> bool
(** [intersects a b] iff [a ∩ b ≠ ∅]. *)

val equal : t -> t -> bool
(** Value equality, independent of representation width. *)

val compare : t -> t -> int
(** Total order on sets (numeric order of the underlying bits,
    independent of representation width); this coincides with the
    lexicographic order on sets used in Section 5.4 of the paper when
    comparing [min] elements first. *)

val cardinal : t -> int
(** Number of members (population count). *)

val is_singleton : t -> bool

val min_elt : t -> node
(** Smallest member, i.e. the canonical representative [min(S)].
    @raise Not_found on the empty set. *)

val min_elt_opt : t -> node option

val max_elt : t -> node
(** Largest member.  @raise Not_found on the empty set. *)

val min_set : t -> t
(** [min_set s] is [{min_elt s}], or [empty] if [s] is empty — the
    paper's [min(S)] as a set. *)

val without_min : t -> t
(** [without_min s] is [s \ min_set s] — the paper's [S \ min(S)],
    written [min̄(S)]. *)

val full : int -> t
(** [full n] is [{0, 1, ..., n-1}].  Values up to {!small_capacity}
    stay on the single-word path; beyond it the result is wide.
    @raise Invalid_argument if [n] is negative or exceeds
    {!max_nodes}. *)

val range : int -> int -> t
(** [range lo hi] is [{lo, ..., hi}] (empty if [lo > hi]). *)

val below : node -> t
(** [below v] is [{w | w < v}] — used to build the paper's forbidden
    set [B_v = {w | w ≤ v}] as [add v (below v)]. *)

val upto : node -> t
(** [upto v] is [B_v = {w | w ≤ v}]. *)

val of_list : node list -> t

val to_list : t -> node list
(** Members in increasing order. *)

val iter : (node -> unit) -> t -> unit
(** Iterate members in increasing order. *)

val iter_desc : (node -> unit) -> t -> unit
(** Iterate members in decreasing order (the order in which [Solve]
    and [EmitCsg] walk nodes). *)

val fold : (node -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over members in increasing order. *)

val union_over_array : t array -> t -> t
(** [union_over_array arr s] is [⋃ {arr.(v) | v ∈ s}], allocation-free
    when everything involved is single-word.  [arr] must be indexed by
    node and cover every member of [s]. *)

val for_all : (node -> bool) -> t -> bool

val exists : (node -> bool) -> t -> bool

val filter : (node -> bool) -> t -> t

val choose : t -> node
(** An arbitrary member (the smallest).  @raise Not_found if empty. *)

val fits_small : t -> bool
(** Whether the {e value} fits the single-word fast path (all members
    below {!small_capacity}) — true also for a wide-represented set
    whose upper words are all zero. *)

val to_int : t -> int
(** The raw single-word bit pattern.  Injective over sets that
    {!fits_small}; useful as a hash-table key on the small path.
    @raise Invalid_argument if the set has a member >=
    {!small_capacity}. *)

val unsafe_of_int : int -> t
(** Reinterpret a single-word bit pattern as a set.  The caller must
    guarantee the value is non-negative. *)

val hash : t -> int
(** Value-based hash: equal sets hash alike regardless of
    representation width (on the small path this is the raw bit
    pattern, unchanged from the pre-widening behaviour). *)

val pp : Format.formatter -> t -> unit
(** Prints as [{R0,R3,R5}]. *)

val to_string : t -> string

val pp_named : (node -> string) -> Format.formatter -> t -> unit
(** Prints with a caller-supplied node-naming function. *)

(** Raw 62-bit words, for code that combines sets word by word
    without allocating, or keeps bitsets of its own over another index
    space (the per-node incident-edge bitsets of
    [Hypergraph.Graph]). *)
module Words : sig
  val bits : int
  (** Bits per word: {!small_capacity}.  Word [k] of a set holds its
      members [62k .. 62k+61], member [62k + i] at bit [i]. *)

  val count : t -> int
  (** Words in the set's representation, at least 1; every word at
      or beyond it is 0.  It depends on the representation, not only
      on the value. *)

  val get : t -> int -> int
  (** [get s k] is word [k] of [s], 0 for [k >= count s]. *)

  val lowest_bit : int -> int
  (** Index of the lowest set bit of a nonzero word. *)

  val highest_bit : int -> int
  (** Index of the highest set bit of a nonzero word. *)
end

(** Test-only hooks for the differential oracle layer
    ([test/test_widening.ml]): they let the small-graph algorithms run
    entirely on wide representations so the two paths can be compared
    on identical inputs.  Not for production use. *)
module Internal : sig
  val is_wide_repr : t -> bool
  (** Whether the value currently uses the multi-word representation
      (an implementation detail — NOT whether the set is large). *)

  val force_wide : t -> t
  (** The same set, re-represented as a (one-word) wide value. *)

  val force_wide_mode : unit -> bool
  (** Whether constructors are currently routed to the wide
      representation. *)

  val with_force_wide : (unit -> 'a) -> 'a
  (** Run a thunk with every constructor ([singleton], [add], [full],
      [range], [below], [upto], [of_list], ...) producing wide
      representations regardless of width, restoring the previous mode
      afterwards (exception-safe). *)
end
