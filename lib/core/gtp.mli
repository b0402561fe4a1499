(** General Topology Placement (paper Alg. 1).

    Greedy maximisation of the submodular decrement: repeatedly deploy
    on the vertex with the maximum marginal decrement until every flow
    is processed.  By Theorem 3 the decrement of the result is at least
    (1 − 1/e) of the optimum for the same number of middleboxes.

    The evaluation also imposes an explicit budget [k]; [run ~budget]
    stops at the budget even if some flows remain unserved, and the
    outcome says whether the deployment is feasible (the paper only
    scores feasible deployments and regenerates traffic otherwise). *)

val run : ?budget:int -> Instance.t -> Solver_intf.outcome
(** Plain greedy, exactly Alg. 1, with marginals from {!Inc_oracle}.
    Default budget: |V|.  [test/reference.ml] keeps the from-scratch
    oracle it is differential-tested against.

    Telemetry: counters ["budget"], ["delta_evals"] and
    ["oracle_calls"] (decrement-oracle evaluations, published once per
    run), ["placement_size"], ["oracle_ns"] (wall time of the greedy
    phase, the part that queries the oracle, in nanoseconds); spans
    [gtp > greedy, cover-fixup]. *)

val run_celf : ?budget:int -> Instance.t -> Solver_intf.outcome
(** Lazy-greedy (CELF) acceleration — same deployment as {!run} (the
    ablation bench verifies this and counts saved oracle calls).  Same
    counters as {!run}; spans [gtp-celf > greedy, cover-fixup]. *)

val derived_k : Instance.t -> int
(** The k "derived from the algorithm" (Sec. 4.2): middleboxes GTP
    needs to make the deployment feasible with no budget. *)
