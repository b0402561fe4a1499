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
    allocation.

    Summed over the flows, b(P) = U − (1−λ)·D(P), where U = Σ_f r_f·|p_f|
    ({!Instance.total_path_volume}) and the {e diminished volume}
    D(P) = Σ_f r_f·(|p_f| − l_f) over served flows are both integers; the
    decrement of Def. 1 is d(P) = (1−λ)·D(P).  Every solver decides on D
    and b is rendered from it once, by {!render}, where an answer is
    reported. *)

val diminished_volume : Instance.t -> Placement.t -> int
(** D(P): Σ_f r_f · (edges carried at the diminished rate) under the
    forced allocation, one scan of the flow array against one placement
    mask. *)

val diminishes : float -> bool
(** [diminishes lambda] is [1 − λ > 0]: whether D moves b at all.  At
    λ = 1 every deployment costs U, and the solvers that decide by
    comparing D read this one predicate to keep their λ = 1 tie rules. *)

val render : lambda:float -> total:int -> int -> float
(** [render ~lambda ~total d] is b = U − (1−λ)·D for U = [total] and
    D = [d], as [float total −. (1 −. λ) *. float d]: the one place a
    bandwidth is computed from the objective. *)

val total : Instance.t -> Placement.t -> float
(** b(P, F): {!render} of {!diminished_volume}. *)
