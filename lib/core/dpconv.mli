(** DPconv: join ordering by fast subset convolution (Stoian, arXiv
    2409.08013).

    DPhyp enumerates csg-cmp-pairs — Θ(3^n) of them on a clique — and
    pays for each one.  For the {e bottleneck} objective C_max
    (minimize the largest intermediate result) the DP

      [dp(S) = min over partitions S = S1 ⊎ S2 of
                 max(|S|_est, dp(S1), dp(S2))]

    can instead be answered with boolean subset convolutions: "is
    C_max ≤ τ achievable for S?" is a ranked zeta / Möbius transform
    pipeline over the subset lattice costing Õ(2^n) per threshold, and
    a binary search over the O(2^n) distinct intermediate
    cardinalities pins the exact optimum — Õ(2^n) total instead of
    Θ(3^n).  The search is bracketed by card(V) below and by the C_max
    of a greedy ({!Goo}) plan above, and its first probe goes just
    below the greedy value, which is often optimal already; a pass
    whose layers run dry stops early, and the final answer reuses the
    last feasible pass instead of running it again.  Subsets are dense
    array indexes via [Subset_enum.Lattice]; a connectivity mask
    computed from the graph's incidence indexes keeps disconnected
    subsets out of every layer, so no disconnected set can ever become
    a champion.

    The sum objective C_out does not decompose over a boolean lattice,
    so this module offers a {e certified upper bound} instead
    ({!Cout_bound}): the optimal-C_max feasible family is refined by a
    layered, bucket-ordered min-plus pass (each cardinality layer
    scans candidate halves in ascending cost-bucket order with an
    early exit), and the witness plan is rebuilt through [Emit] under
    the session cost model — the reported bound is the exact cost of a
    real, [Plan_check]-valid plan, hence always ≥ the true optimum of
    any exact enumerator.

    Scope: simple inner-join graphs only (no hyperedges, no non-inner
    operators, no dependent free variables) — on those, every
    partition of a connected set into two connected halves is a valid
    csg-cmp-pair, which is the algebraic fact the convolution relies
    on; with complex edges the convolution would accept partitions
    DPhyp rejects.  [Adaptive] gates the dense tier on {!supported};
    direct calls on an unsupported graph raise [Invalid_argument],
    mirroring [Dpccp]. *)

type objective =
  | Cmax  (** exact bottleneck optimum, plus a witness plan *)
  | Cout_bound
      (** certified C_out upper bound: the best plan found by the
          layered/bucketed min-plus refinement of the optimal-C_max
          family *)

val objective_name : objective -> string
(** ["cmax" | "cout-bound"]. *)

val objective_of_name : string -> objective option

val max_relations : int
(** Largest graph the transforms accept (18): the working set is
    Θ(n·2^n) words — about 40 MB at the cap — and every layer of a
    feasible pass touches all of it. *)

val supported : Hypergraph.Graph.t -> bool
(** Whether {!solve} accepts the graph: at most {!max_relations}
    relations, simple edges only, all operators inner, no free
    variables. *)

type outcome = {
  plan : Plans.Plan.t option;
      (** witness plan (built through [Emit] under the session model);
          [None] iff the graph is disconnected *)
  cmax : float;
      (** the exact optimal C_max — the smallest achievable largest
          intermediate cardinality ([nan] when no plan exists, [0.] on
          a single relation) *)
  bound : float;
      (** cost of [plan] under the cost model: for {!Cout_bound} the
          certified upper bound on the C_out optimum ([nan] when no
          plan exists) *)
  feasible : int;
      (** connected subsets achievable within C_max ≤ [cmax] — the
          size of the search space the reconstruction walks *)
  dp : Plans.Dp_table.t;
      (** reconstruction table: one entry per subset on the witness
          plan's partition tree (provenance hooks observe it like any
          other DP table) *)
}

val solve :
  ?model:Costing.Cost_model.t ->
  ?objective:objective ->
  ?counters:Counters.t ->
  Hypergraph.Graph.t ->
  outcome
(** Run the convolution DP (default objective {!Cmax}, default model
    [C_out]).  Charges [counters] one pair per candidate split
    examined during refinement/reconstruction (the transforms
    themselves are bulk work and are not pair-metered), so a budget
    still bounds the adversarial part of the run.
    @raise Invalid_argument if the graph is not {!supported}.
    @raise Counters.Budget_exhausted like every other strategy. *)

(** {2 Transforms}

    Exposed for the differential tests: in-place subset-sum (zeta) and
    inversion (Möbius) over a flat lattice array, and the full ranked
    fast subset convolution.  They run the same block-structured kernel
    as {!solve}'s feasibility passes. *)

val zeta_in_place : bits:int -> int array -> unit
(** [zeta_in_place ~bits a] replaces [a.(s)] with [Σ_{t ⊆ s} a.(t)]
    for every [s] in [0, 2^bits); [a] must have length [2^bits]. *)

val mobius_in_place : bits:int -> int array -> unit
(** Inverse of {!zeta_in_place}. *)

val subset_convolve : bits:int -> int array -> int array -> int array
(** [(f ∗ g)(s) = Σ_{t ⊆ s} f(t) · g(s \ t)] for every [s], via the
    ranked transforms in O(2^bits · bits²) — the primitive the C_max
    feasibility layers are built from. *)
