(** General Topology Placement (paper Alg. 1).

    Greedy maximisation of the submodular decrement: repeatedly deploy
    on the vertex with the maximum marginal decrement until every flow
    is processed.  By Theorem 3 the decrement of the result is at least
    (1 − 1/e) of the optimum for the same number of middleboxes.

    Both loops run on one {!Inc_oracle} and read its gain ledger
    directly, in integer diminished-volume units: the positive (1 − λ)
    factor cannot move an argmax, and integer marginals keep every
    comparison exact.  A greedy round is one
    [Inc_oracle.argmax o Marginal_volume]; CELF's heap keys are the
    integer marginals last read.  The cover fix-up then edits the same
    oracle from the picks it holds, so the gains the greedy built stay
    current for gtp-ls's refinement.  The value-only greedy and CELF
    they are differential-tested against live in [test/reference.ml].

    The evaluation also imposes an explicit budget [k]; [run ~budget]
    stops at the budget even if some flows remain unserved, and the
    outcome says whether the deployment is feasible (the paper only
    scores feasible deployments and regenerates traffic otherwise). *)

type picks = {
  oracle : Inc_oracle.t;  (** the loop's oracle, holding [chosen] *)
  chosen : int list;      (** in selection order *)
  gains : int list;       (** each pick's {!Inc_oracle.marginal_volume} when picked *)
  reads : int;            (** marginals read *)
}

val greedy : k:int -> Instance.t -> picks
(** Alg. 1's greedy prefix, before any fix-up: rounds of
    [Inc_oracle.argmax] — the highest strictly positive marginal, lowest
    vertex on ties — until [k] boxes are deployed or no marginal is
    positive.  Each round reads the marginal of every vertex not yet
    deployed. *)

val celf : k:int -> Instance.t -> picks
(** CELF lazy evaluation (Leskovec et al., KDD 2007): the same picks and
    gains as [greedy ~k], one read each time it looks at the top of its
    lazy heap (keys and vertices in two int arrays). *)

val run : ?budget:int -> Instance.t -> Solver_intf.outcome
(** {!greedy} repaired by {!Cover_fixup.within}: exactly Alg. 1 under a
    budget.  Default budget: |V|.  When the greedy already serves every
    flow the repair is skipped, since it would return the picks
    unchanged; the [cover-fixup] span is still recorded.

    Telemetry: counters ["budget"], ["delta_evals"] and
    ["oracle_calls"] (marginals read, published once per run),
    ["placement_size"], ["oracle_ns"] (wall time of the greedy phase,
    the part that queries the oracle, in nanoseconds); spans
    [gtp > greedy, cover-fixup]. *)

val run_oracle : ?budget:int -> Instance.t -> Solver_intf.outcome * Inc_oracle.t
(** {!run}, also handing out the oracle the run ends on.  It holds the
    outcome's placement, so a refinement ({!Local_search.refine}) starts
    from it without rebuilding the deployment. *)

val run_celf : ?budget:int -> Instance.t -> Solver_intf.outcome
(** {!celf} repaired the same way — same deployment as {!run} (the
    ablation bench verifies this and counts saved oracle calls).  Same
    counters as {!run}; spans [gtp-celf > greedy, cover-fixup]. *)

val derived_k : Instance.t -> int
(** The k "derived from the algorithm" (Sec. 4.2): middleboxes GTP
    needs to make the deployment feasible with no budget. *)
