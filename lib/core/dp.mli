(** Optimal dynamic programming on trees (paper Sec. 5.1, Eqs. 7–10).

    States follow the paper with one uniform convention, validated
    against every worked number in Figs. 5–7 (see
    [test/test_paper_examples.ml]):

    - [P(v, κ, b)] = minimum bandwidth consumed on the edges *strictly
      inside* the subtree [T_v] (v's own uplink is charged by v's
      parent) using *exactly* [κ] middleboxes in [T_v], with flows of
      total initial rate *exactly* [b] processed somewhere in [T_v].
    - [F(v, k) = min_{κ ≤ k} P(v, κ, R_v)] where [R_v] is the total
      rate sourced in [T_v] — the fully-served value with budget [k].

    Children are merged sequentially (a knapsack over (κ, b) pairs),
    which generalises the binary-tree formulation of Eqs. 7–8 to
    arbitrary branching.  A box at [v] processes every flow not already
    served below, at uplink cost [λ·b + (R_c − b)] per child uplink —
    exactly the paper's terms.  The budget relaxation happens at query
    time, so a single table build answers all [k' ≤ k_max].

    The tables hold integers: since [P(v, κ, b) = U_v − (1−λ)·Q(v, κ, b)],
    where [U_v] is the rate·edges inside [T_v] with no box and [Q] the
    most of it carried diminished, the DP maximises [Q] exactly and
    renders [P] and [F] from it ({!Bandwidth.render}).  Every choice
    keeps the first state found on ties; at λ = 1, where every state
    costs [U_v], [Q] counts no edge, so the first state found stands.

    Rates must be integral (the DP is pseudo-polynomial in
    [r_max = max_f r_f], Theorem 5); see {!Scaled_dp} for arbitrary
    rates.  Optimality is cross-checked against {!Brute} in the
    property tests. *)

val solve : k:int -> Instance.Tree.t -> Solver_intf.outcome
(** Optimal deployment of at most [k] middleboxes; the volume is the DP
    optimum (measured by a scan at λ = 1), and the outcome is infeasible
    only when [k = 0] and flows exist.  Traceback reconstructs an
    optimal placement, whose diminished volume equals the DP value
    (asserted in tests).

    Telemetry: counters ["budget"], ["states"] (DP states materialised,
    the ablation metric), ["placement_size"]; spans
    [dp > build, traceback]. *)

type tables
(** Fully materialised DP tables, for table-level inspection. *)

val build : k_max:int -> Instance.Tree.t -> tables

(* tdmd-analyze: allow unreached-export — reads the hidden tables that pin the paper's Fig. 6 *)
val f_value : tables -> v:int -> k:int -> float
(** The paper's F(v, k) (Fig. 6), rendered from the tables; [infinity]
    when infeasible. *)

(* tdmd-analyze: allow unreached-export — reads the hidden tables that pin the paper's Fig. 7 *)
val p_value : tables -> v:int -> k:int -> b:int -> float
(** The paper's P(v, k, b) (Fig. 7) under the budget reading
    [min_{κ ≤ k}], rendered from the tables; [infinity] for
    unachievable [b]. *)
