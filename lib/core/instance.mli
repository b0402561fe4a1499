(** TDMD problem instances (paper Sec. 3).

    An instance bundles the network, the flow set and the middlebox's
    traffic-changing ratio λ.  The middlebox budget [k] is a solver
    parameter, not part of the instance, because the experiments sweep
    it.  [Tree] instances additionally carry the rooted view required by
    the Sec. 5 solvers and enforce the Sec. 5 preconditions (sources are
    leaves, destination is the root). *)

type incidence = private {
  slabs : int array array;
      (** per vertex: interleaved pairs, flow index [slab.(2i)] at path
          position [slab.(2i + 1)], in flow-index order; only the first
          [degree] pairs are set *)
  degree : int array;  (** per vertex: number of pairs in its slab *)
  rates : int array;  (** per flow index: r_f *)
  hops : int array;  (** per flow index: |p_f| *)
  paths : int array array;  (** per flow index: p_f *)
  empty_gain : int array;
      (** per vertex: Σ r_f·(|p_f| − position) over the flows through
          it, the diminished volume a lone box there would serve — the
          gain ledger of the empty deployment, which every static
          {!Inc_oracle} over the instance copies instead of walking the
          paths *)
  disjoint_paths : int Atomic.t;
      (** the size of {!Inc_oracle.disjoint_paths}'s full packing of
          these flows, stored by the first oracle over the instance that
          asks; −1 until then *)
}
(** The vertex → (flow, path position) incidence of the flow set: one
    int slab per vertex plus per-flow arrays, built once per instance
    and shared read-only by every {!Inc_oracle} (and every domain)
    solving it, so an oracle allocates only its per-run deployment
    state and copies the empty deployment's ledger ([empty_gain],
    [degree]) instead of building it.  The churn engine's oracle keeps
    the same layout over flow slots it owns.  The arrays must not be written; [disjoint_paths] is
    the one cell an oracle writes, with a value every oracle over the
    instance computes alike. *)

type t = private {
  graph : Tdmd_graph.Digraph.t;
  flows : Tdmd_flow.Flow.t array;
  lambda : float;  (** traffic-changing ratio, 0 ≤ λ ≤ 1 *)
  path_volume : int;  (** U = Σ_f r_f·|p_f|, see {!total_path_volume} *)
  incidence : incidence;
}

val make :
  graph:Tdmd_graph.Digraph.t ->
  flows:Tdmd_flow.Flow.t list ->
  lambda:float ->
  t
(** Validates 0 ≤ λ ≤ 1 (NaN fails) and every flow path against the graph, then
    builds the {!incidence}, [empty_gain] in the pass that fills the
    slabs, in O(|V| + Σ_f |p_f|).
    @raise Invalid_argument on violations. *)

val valid_lambda : float -> bool
(** 0 ≤ λ ≤ 1; NaN fails. *)

val check_lambda : string -> float -> unit
(** [check_lambda who lambda]: the one λ check of every constructor that
    takes λ, here and in [Incremental] and [Inc_oracle].
    @raise Invalid_argument ["<who>: lambda must lie in [0, 1]"]. *)

val vertex_count : t -> int
val flow_count : t -> int
val flows : t -> Tdmd_flow.Flow.t list
val total_rate : t -> int
val total_path_volume : t -> int
(** U = Σ_f r_f·|p_f|: the bandwidth with no middlebox deployed (Lemma
    1's max b(P)).  O(1): [make] sums it once. *)

module Tree : sig
  type general = t

  type t = private {
    tree : Tdmd_tree.Rooted_tree.t;
    flows : Tdmd_flow.Flow.t array;  (** merged per source, see [make] *)
    lambda : float;
  }

  val make :
    tree:Tdmd_tree.Rooted_tree.t ->
    flows:Tdmd_flow.Flow.t list ->
    lambda:float ->
    t
  (** Checks 0 ≤ λ ≤ 1 (NaN fails) and that each flow runs from a leaf
      up to the root along tree edges, and merges flows sharing a source (paper Sec. 5: same-leaf
      flows are one flow for the solvers).
      @raise Invalid_argument on violations. *)

  val to_general : t -> general
  (** The same instance viewed as a general one (used to cross-check
      tree solvers against general ones in tests). *)

  val subtree_rate : t -> int array
  (** Per-vertex total rate of flows sourced inside the vertex's
      subtree (the DP's R_v). *)

  val source_rate : t -> int array
  (** Per-vertex total rate of flows sourced exactly there. *)
end
