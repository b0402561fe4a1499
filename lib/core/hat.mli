(** Heuristic Algorithm for Trees (paper Alg. 2).

    Start with a middlebox on every leaf (the bandwidth-optimal but
    budget-oblivious deployment), then repeatedly *merge* the pair of
    deployed boxes whose replacement by one box at their LCA increases
    total bandwidth the least — Δb(i,j), tracked in a min-heap — until
    at most [k] boxes remain.

    Δb is evaluated *exactly* as b(P∖{v_i,v_j} ∪ {LCA}) − b(P), which
    coincides with the paper's closed form
    (1−λ)·[R_i·(depth i − depth a) + R_j·(depth j − depth a)] whenever
    no third deployed box sits between a merged box and the LCA (always
    true while P is an antichain, e.g. in all of the paper's worked
    steps — pinned in tests) and is safe when it is not.  Heap entries
    are invalidated lazily: stale entries are re-evaluated on pop and
    pushed back if their penalty changed. *)

type report = {
  placement : Placement.t;
  bandwidth : float;
  feasible : bool;   (** true whenever k ≥ 1 (root merge always exists) *)
  merges : int;
      (** number of merge rounds performed — deprecated alias of the
          ["merges"] telemetry counter *)
  telemetry : Tdmd_obs.Telemetry.t;
      (** counters ["merges"], ["delta_evals"], ["oracle_ns"]
          (nanoseconds inside Δb evaluations), ["budget"],
          ["placement_size"]; span [hat] *)
}

val run : k:int -> Instance.Tree.t -> report
(** Each Δb is answered through the {!Inc_oracle} mirror of the current
    deployment — O(flows through the merged pair and their LCA) per
    evaluation instead of a full-instance rescan — in integer
    diminished-volume units scaled by (1−λ), so the merge sequence is
    bit-for-bit that of the from-scratch Δb in [test/reference.ml]
    (differential-tested). *)
