(** Feasibility fix-up shared by the budgeted solvers and the churn
    engine.

    The paper's evaluation only scores feasible deployments; when a
    ranking-based selection leaves flows unserved within the budget k,
    the walkthrough of Fig. 1 (k = 2) shows the paper swapping the
    lowest-value pick for one that covers the stragglers.  [within]
    implements exactly that: spend leftover budget on covering picks
    (most unserved flows first, as the set-cover greedy does), then if
    still infeasible, drop the latest picks one at a time and re-cover.

    Whether any k boxes serve every flow is NP-hard (Theorem 1), and
    the covering picks are the set-cover greedy, so the fix-up is not
    complete: it can return an infeasible deployment although a
    feasible one of at most k boxes exists, even one that keeps a
    prefix of the picks.  On vertices 0–4 with arcs 0→2, 0→3, 1→2 and
    1→4 and rate-1 flows 0→2 (twice), 0→3, 1→2 (twice) and 1→4,
    [within ~chosen:[] ~budget:2] covers at 2 (four flows), then at 0
    (the lowest of four one-flow ties), and leaves 1→4 unserved, while
    [0; 1] serves every flow.

    Each retry edits the oracle: it retires the failed attempt's
    covering picks and the latest kept pick, then covers again.  When
    the first candidate fails, [within] first asks
    {!Inc_oracle.disjoint_paths}, in O(Σ_f |p_f| + |V|): more than k
    pairwise vertex-disjoint flow paths prove that no k boxes serve
    every flow, so every retry would fail and the first candidate is
    returned at once.  A feasible first candidate never pays for the
    packing, and static solves pay for it once per instance (the size is
    stored with the instance). *)

val within : Inc_oracle.t -> chosen:int list -> budget:int -> int list
(** [within t ~chosen ~budget] takes picks in selection order (most
    recent last) and returns a selection-order list of at most [budget]
    distinct vertices.  It starts from the longest prefix of [chosen]
    with at most [budget] distinct vertices (their first occurrences, in
    order), plus greedy covering picks.  When that first candidate is
    infeasible, the packing runs once; if it holds more than [budget]
    paths, no shorter prefix is tried and the first candidate is the
    answer, as after a full round of failed retries.  Otherwise ever
    shorter prefixes are re-covered until one candidate serves every
    flow; when none does, the first candidate is the answer.  The result
    can be infeasible although a feasible deployment within [budget]
    exists (see above).

    The oracle's flows are the ones to serve.  Its deployment on entry
    is the starting point, and the answer does not depend on it:
    [within] retires the deployed vertices outside the prefix and
    deploys the missing ones (GTP's and CELF's greedy oracle holds the
    prefix already, the churn engine's all of it but an arrival's pick),
    and every later step edits on from there.  On return the
    oracle holds the returned list, each ledger half built before the
    call is current, so the caller's next query (the churn
    rebalancer's, gtp-ls's first scan) reads it without a rebuild, and
    the undo journal holds the fix-up's edits on top of the caller's. *)
