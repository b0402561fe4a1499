(** Swap-based local search refinement.

    A standard post-pass the paper leaves on the table: starting from
    any feasible deployment, repeatedly apply the best
    remove-one/add-one swap (or a pure addition while under budget)
    that strictly raises the diminished volume, so strictly lowers the
    bandwidth, while keeping every flow served (at λ = 1, where no move
    lowers b, none is taken).  Terminates at a 1-swap local optimum;
    never returns a worse deployment than its input.  The ablation bench quantifies how much
    it closes the GTP/HAT-to-DP gap. *)

val refine :
  ?max_rounds:int -> k:int -> Instance.t -> Inc_oracle.t -> Solver_intf.outcome
(** [refine ~k inst t] starts from the deployment that [t], an oracle
    over [inst], holds: {!Gtp.run_oracle}'s, or
    [Inc_oracle.of_list inst (Placement.to_list p)] for a placement [p].
    That deployment must be feasible (raises [Invalid_argument]
    otherwise), so the outcome is always feasible.  The search edits
    [t] in place and leaves it holding the outcome's placement.  Default
    [max_rounds] = 1000.  Candidate moves are scored on one
    {!Inc_oracle} by {!Inc_oracle.scan_moves}, one call per outgoing
    box (plus one for the pure additions): it prices the deployment
    without the box read-only, from the flows the box serves, and picks
    the best incoming vertex off the oracle's gain ledger.  A round
    costs one O(|V|) pass for the best undeployed vertex plus, per box,
    the path lengths of the flows it serves; the accepted move is
    applied to the oracle in place.

    Telemetry: counters ["budget"], ["delta_evals"] (candidates
    probed), ["swaps"] (improving moves applied), ["evaluations"]
    (candidate deployments scored), ["oracle_ns"] (wall time of the
    search phase, in nanoseconds), ["placement_size"]; span
    [local-search]. *)
