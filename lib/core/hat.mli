(** Heuristic Algorithm for Trees (paper Alg. 2).

    Start with a middlebox on every leaf (the bandwidth-optimal but
    budget-oblivious deployment), then repeatedly *merge* the pair of
    deployed boxes whose replacement by one box at their LCA increases
    total bandwidth the least — Δb(i,j), tracked in a min-heap — until
    at most [k] boxes remain.

    Δb = (1−λ)·ΔD, and the heap keys on the integer ΔD =
    D(P) − D(P∖{v_i,v_j} ∪ {LCA}), evaluated *exactly*; (1−λ)·ΔD
    coincides with the paper's closed form
    (1−λ)·[R_i·(depth i − depth a) + R_j·(depth j − depth a)] whenever
    no third deployed box sits between a merged box and the LCA (always
    true while P is an antichain, e.g. in all of the paper's worked
    steps — pinned in tests) and is safe when it is not.  At λ = 1 every
    Δb is 0, so every key is 0 and vertex order decides.  Heap entries
    are invalidated lazily: stale entries are re-evaluated on pop and
    pushed back if their penalty changed. *)

val run : k:int -> Instance.Tree.t -> Solver_intf.outcome
(** Feasible whenever k ≥ 1 (the root merge always exists); at k = 0
    it deploys nothing, feasible only without flows.  Each Δb is
    answered through the {!Inc_oracle} mirror of the current
    deployment — O(flows through the merged pair and their LCA) per
    evaluation instead of a full-instance rescan — so the merge
    sequence is exactly that of the from-scratch ΔD in
    [test/reference.ml] (differential-tested).

    Telemetry: counters ["budget"], ["delta_evals"], ["merges"] (merge
    rounds performed), ["oracle_ns"] (nanoseconds inside Δb
    evaluations), ["placement_size"]; span [hat]. *)
