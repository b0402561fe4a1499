(** Incremental decrement/bandwidth oracle: the one oracle behind every
    solver and the churn engine.

    Every greedy-style solver (GTP/CELF, HAT's merge loop, the local
    search, the feasibility fix-up, the portfolio) repeatedly asks
    "what does deploying or retiring one middlebox do to the
    objective?", and so does the churn engine ({!Incremental}) while
    flows arrive and depart.  Answering by rescanning every flow costs
    O(|F| · avg-path-length) per query; GTP/CELF issue O(|V|²) such
    queries and HAT one per heap pair, so the oracle dominates
    end-to-end wall-clock (paper Theorem 3's O(|V|² log |V|) bound
    assumes a cheap marginal oracle).

    The oracle reads a vertex → (flow slot, path position) incidence
    laid out as one int slab per vertex, with rate, hop count and path
    indexed by slot (the {!Instance.incidence} layout), and maintains,
    per flow, the earliest deployed position on its path.  Then:

    - {!marginal_volume} and {!newly_served} answer a what-if query in
      O(flows through v), without mutation — the local search and the
      churn rebalancer score every swap candidate this way;
    - {!add} / {!remove} commit a deployment change in O(flows through v)
      (plus, on removal, the rescan to each flow's next deployed vertex);
    - {!undo} reverts the most recent [add]/[remove], enabling cheap
      multi-vertex what-if probes (HAT's Δb, the annealer's moves).

    Two constructors fix who owns the incidence.  {!create} reads the
    instance's incidence, built once by [Instance.make] and shared
    read-only by every oracle over that instance (in any domain), so an
    oracle allocates only its deployment state.  {!empty} owns its
    incidence and accepts {!add_flow} / {!remove_flow}, reusing vacated
    slots — the churn engine's oracle.  An oracle over an instance
    refuses flow edits, so a shared incidence is never written.

    All state is kept in {e integer} diminished-volume units (see
    {!Bandwidth.diminished_volume}); the (1−λ) scaling is applied only at
    the float boundary.  Every answer therefore agrees {e bit-for-bit}
    with a from-scratch naive scan — the invariant the CELF "cached gains
    are upper bounds" acceptance test depends on, and what the
    differential tests in [test/test_inc_oracle.ml] and
    [test/test_churn.ml] lock in. *)

type t

val create : Instance.t -> t
(** Empty deployment over the instance's flows.  O(|V| + |F|): the
    incidence comes with the instance, so an oracle allocates only its
    per-run state — a deployed byte per vertex and a serving position
    per flow.  Oracles over one instance are independent and may run in
    different domains at once. *)

val of_list : Instance.t -> int list -> t
(** [create] plus the given deployment, with an empty undo journal. *)

val empty : vertices:int -> lambda:float -> t
(** No flows and no deployment over [vertices] vertices, owning its
    incidence: the oracle for {!add_flow} / {!remove_flow}. *)

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

(** {1 Flow edits}

    Both run in O(path + flows through the path's vertices), serve the
    flow against the current deployment, and clear the undo journal. *)

val add_flow : t -> Tdmd_flow.Flow.t -> int
(** Add a flow (path vertices must lie in the graph) and return its
    slot, the handle {!remove_flow} takes.
    @raise Invalid_argument on an oracle made by {!create}. *)

val remove_flow : t -> int -> unit
(** Remove the flow in a slot returned by {!add_flow}; the slot may be
    handed out again.
    @raise Invalid_argument on an oracle made by {!create}. *)

(** {1 Queries} *)

val mem : t -> int -> bool
val size : t -> int
(** Number of deployed vertices. *)

val placement : t -> Placement.t

val mask : t -> Bytes.t
(** The deployed byte per vertex, in the {!Allocation.mask} format.
    This is the oracle's own state: read it, never write it; every
    deployment edit changes it. *)

val diminished_volume : t -> int
(** Equals [Bandwidth.diminished_volume] of the current deployment. *)

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

val newly_served : t -> int -> int
(** Number of currently-unserved flows through the vertex, i.e. the
    drop of {!unserved_count} if it were deployed (0 when already
    deployed).  Pure. *)

val serves : t -> int -> bool
(** Is the vertex deployed and the serving box of at least one flow? *)

val argmax : t -> (t -> int -> int) -> int option
(** The vertex with the highest strictly positive score, lowest vertex
    on ties; [None] when no score is positive.  With {!marginal_volume}
    it is the best box to add, with {!newly_served} the best cover. *)

val unserved_count : t -> int
val is_feasible : t -> bool
(** All flows pass a deployed vertex? *)
