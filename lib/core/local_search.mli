(** Swap-based local search refinement.

    A standard post-pass the paper leaves on the table: starting from
    any feasible deployment, repeatedly apply the best
    remove-one/add-one swap (or a pure addition while under budget)
    that strictly lowers the bandwidth while keeping every flow served.
    Terminates at a 1-swap local optimum; never returns a worse
    deployment than its input.  The ablation bench quantifies how much
    it closes the GTP/HAT-to-DP gap. *)

val refine :
  ?max_rounds:int -> k:int -> Instance.t -> Placement.t -> Solver_intf.outcome
(** [refine ~k inst p] requires [p] feasible (raises [Invalid_argument]
    otherwise), so its outcome is always feasible.  Default
    [max_rounds] = 1000.  Candidate moves are scored on one
    {!Inc_oracle} by {!Inc_oracle.scan_moves}, one call per outgoing
    box (plus one for the pure additions): it removes the box once,
    reads each incoming vertex's served-flow count and marginal volume
    off the oracle's gain ledger in O(1), and restores the box, so a
    round costs O(|P| · |V|) plus the removals; the accepted move is
    applied to the oracle in place.

    Telemetry: counters ["budget"], ["delta_evals"] (candidates
    probed), ["swaps"] (improving moves applied), ["evaluations"]
    (candidate deployments scored), ["oracle_ns"] (wall time of the
    search phase, in nanoseconds), ["placement_size"]; span
    [local-search]. *)
