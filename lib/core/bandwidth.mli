(** The objective (paper Eq. 1) and the decrement function (Defs. 1–2).

    Convention.  A middlebox processes a flow *before* it traverses the
    remaining edges: serving flow [f] at source-offset [l] (edges from
    [src f] to the serving vertex) leaves the first [l] edges at the
    full rate [r_f] and diminishes the remaining [|p_f| − l] edges to
    [λ·r_f], so

    [b(f) = r_f·l + λ·r_f·(|p_f| − l)].

    The paper writes the same quantity as [r_f·(|p_f| − (1−λ)·l̃)] where
    [l̃ = |p_f| − l] counts the *diminished* edges (its Sec. 5 text:
    "(|p_f| − l_v(f)) edges consuming r_f and l_v(f) edges consuming
    λ·r_f"); its Sec. 3 prose defines l_v(f) as the distance from the
    source, which contradicts its own Fig. 1 arithmetic — we follow the
    arithmetic.  Every worked value of Fig. 1 (total 12 with two boxes,
    8 with three), Tab. 2, and Figs. 6–7 is pinned by unit tests in
    [test/test_paper_examples.ml] under this convention.  Serving early
    (small [l]) is best, hence the forced earliest-middlebox
    allocation. *)

val flow_consumption :
  lambda:float -> Tdmd_flow.Flow.t -> Allocation.serving -> float
(** Bandwidth consumed by one flow under a serving decision; an
    [Unserved] flow consumes its full [r_f·|p_f|]. *)

val consumption_in : lambda:float -> Bytes.t -> Tdmd_flow.Flow.t -> float
(** [flow_consumption] under the forced allocation against an
    {!Allocation.mask}: same formula and bits, no allocation. *)

val total : Instance.t -> Placement.t -> float
(** b(P, F): Eq. 1 under the forced earliest-middlebox allocation,
    summed over the flow array in order against one placement mask. *)

val decrement : Instance.t -> Placement.t -> float
(** d(P) = Σ_f r_f·|p_f| − b(P) (Def. 1).  Monotone submodular
    (Theorem 2). *)

val marginal : Instance.t -> Placement.t -> int -> float
(** d_P({v}) = d(P ∪ {v}) − d(P) (Def. 2). *)

val max_decrement : Instance.t -> float
(** (1−λ)·Σ_f r_f·|p_f| (Lemma 1): the decrement when every flow is
    served at its source. *)

val diminished_volume : Instance.t -> Placement.t -> int
(** Σ_f r_f · (edges carried at the diminished rate) under the forced
    allocation — the integer such that
    [decrement = (1-λ) · diminished_volume]. *)
