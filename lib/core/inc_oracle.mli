(** Incremental decrement/bandwidth oracle for the solver hot paths.

    Every greedy-style solver (GTP/CELF, HAT's merge loop, the local
    search, the feasibility fix-up) repeatedly asks "what does deploying
    or retiring one middlebox do to the objective?".  Answering by
    rescanning every flow costs O(|F| · avg-path-length) per query;
    GTP/CELF issue O(|V|²) such queries and HAT one per heap pair, so the
    oracle dominates end-to-end wall-clock (paper Theorem 3's
    O(|V|² log |V|) bound assumes a cheap marginal oracle).

    This structure reads the instance's vertex → (flow, path-position)
    incidence ({!Instance.incidence}: flat CSR int arrays built once per
    instance and shared read-only) and maintains, per flow, the earliest
    deployed position on its path.  Then:

    - {!marginal_volume} and {!newly_served} answer a what-if query in
      O(flows through v), without mutation — the local search scores
      every swap candidate this way;
    - {!add} / {!remove} commit a deployment change in O(flows through v)
      (plus, on removal, the rescan to each flow's next deployed vertex);
    - {!undo} reverts the most recent [add]/[remove], enabling cheap
      multi-vertex what-if probes (HAT's Δb, the annealer's moves).

    All state is kept in {e integer} diminished-volume units (see
    {!Bandwidth.diminished_volume}); the (1−λ) scaling is applied only at
    the float boundary.  Every answer therefore agrees {e bit-for-bit}
    with a from-scratch naive scan — the invariant the CELF "cached gains
    are upper bounds" acceptance test depends on, and what the
    differential tests in [test/test_inc_oracle.ml] lock in. *)

type t

val create : Instance.t -> t
(** Empty deployment.  O(|V| + |F|): the incidence comes with the
    instance, so an oracle allocates only its per-run state — a
    deployed byte per vertex and a serving position per flow.  Oracles
    over one instance are independent and may run in different domains
    at once. *)

val of_list : Instance.t -> int list -> t
(** [create] plus the given deployment, with an empty undo journal. *)

val reset : t -> unit
(** Return to the empty deployment and clear the undo journal. *)

(** {1 Deployment edits} *)

val add : t -> int -> unit
(** Deploy on a vertex (no-op if already deployed).  Journaled. *)

val remove : t -> int -> unit
(** Retire a vertex (no-op if not deployed).  Journaled. *)

val undo : t -> unit
(** Revert the most recent {!add}/{!remove} (no-ops revert to nothing).
    @raise Invalid_argument when the journal is empty. *)

(** {1 Queries} *)

val mem : t -> int -> bool
val size : t -> int
(** Number of deployed vertices. *)

val placement : t -> Placement.t

val diminished_volume : t -> int
(** Equals [Bandwidth.diminished_volume] of the current deployment. *)

val decrement : t -> float
(** (1−λ) · {!diminished_volume}: d(P) of the current deployment. *)

val bandwidth : t -> float
(** b(P, F) = Σ_f r_f·|p_f| − (1−λ)·{!diminished_volume}. *)

val bandwidth_at : t -> int -> float
(** [bandwidth_at t d] is {!bandwidth} of a deployment whose diminished
    volume is [d], in the same float operations: [bandwidth_at t
    (diminished_volume t + marginal_volume t v)] has the bits {!bandwidth}
    would read after [add t v]. *)

val marginal_volume : t -> int -> int
(** Increase of {!diminished_volume} if the vertex were deployed (0 when
    already deployed).  Pure: does not modify the oracle. *)

val marginal : t -> int -> float
(** (1−λ) · {!marginal_volume}: d_P({v}) (paper Def. 2). *)

val newly_served : t -> int -> int
(** Number of currently-unserved flows through the vertex, i.e. the
    drop of {!unserved_count} if it were deployed (0 when already
    deployed).  Pure. *)

val unserved_count : t -> int
val is_feasible : t -> bool
(** All flows pass a deployed vertex? *)

val iter_unserved : t -> (int -> unit) -> unit
(** Apply a function to the index (into the instance's flow array) of
    every currently-unserved flow — the fix-up's cover counting. *)
