(** Exhaustive optimal solver for small instances.

    Enumerates every vertex subset of size ≤ k and keeps the feasible
    one with the highest diminished volume, so the minimum bandwidth
    (the first found on ties, and at λ = 1).  Exponential — the oracle the property
    tests use to certify DP optimality and to bound GTP/HAT
    sub-optimality on random small instances.

    @raise Invalid_argument when Σ_{j ≤ k} C(|V|, j) would exceed 10⁷
    subsets. *)

val solve : k:int -> Instance.t -> Solver_intf.outcome
(** Infeasible, with the empty placement, when no subset of size ≤ k
    serves all flows.  Telemetry: counters ["budget"], ["subsets"]
    (subsets examined), ["placement_size"]; span [brute]. *)
