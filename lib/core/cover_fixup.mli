(** Feasibility fix-up shared by the budgeted solvers and the churn
    engine.

    The paper's evaluation only scores feasible deployments; when a
    ranking-based selection leaves flows unserved within the budget k,
    the walkthrough of Fig. 1 (k = 2) shows the paper swapping the
    lowest-value pick for one that covers the stragglers.  [within]
    implements exactly that: spend leftover budget on covering picks
    (most unserved flows first, as the set-cover greedy does), then if
    still infeasible, drop the latest picks one at a time and re-cover.

    Whether any k boxes serve every flow is NP-hard (Theorem 1), so
    each retry is a full greedy re-cover.  When the first candidate
    fails, [within] first asks {!Inc_oracle.disjoint_paths}, in
    O(Σ_f |p_f| + |V|): more than k pairwise vertex-disjoint flow paths
    prove that no k boxes serve every flow, so every retry would fail
    and the first candidate is returned at once.  A feasible first
    candidate never pays for the packing, and static solves pay for it
    once per instance (the size is stored with the instance). *)

val within : Inc_oracle.t -> chosen:int list -> budget:int -> int list
(** [within t ~chosen ~budget] takes picks in selection order (most
    recent last) and returns a selection-order list of at most [budget]
    distinct vertices.  It starts from the longest prefix of [chosen]
    with at most [budget] distinct vertices, and the result is feasible
    whenever any feasible deployment of size <= budget containing a
    prefix of that exists.  When the first candidate (that prefix plus
    covering picks) is infeasible, the packing runs once; if it holds
    more than [budget] paths, no shorter prefix is tried and the first
    candidate is the answer, as after a full round of failed retries.
    The oracle's flows are the ones to serve; its deployment on entry
    is ignored, and on return it holds the returned list (its undo
    journal covers only that rebuild). *)
