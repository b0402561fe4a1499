(** Extension: rate-scaled approximation of the tree DP.

    The DP is pseudo-polynomial in the flow rates (Theorem 5); the
    paper notes that rates "in an arbitrary precision and order of
    magnitude" make it computationally hard and that a PTAS is
    non-trivial (Sec. 5.1).  The standard engineering answer is rate
    quantisation: divide every rate by a factor θ, round up, solve the
    DP on the small-rate instance, and keep its *placement*, which is
    then scored on the true instance.  θ = 1 is exactly {!Dp};
    larger θ trades optimality for a ~θ² smaller state space.  The
    ablation bench measures both sides of the trade. *)

val solve : k:int -> theta:int -> Instance.Tree.t -> Solver_intf.outcome
(** The bandwidth is the true-instance bandwidth of the quantised DP's
    placement.  Telemetry: counter ["theta"], the inner DP's counters
    (its ["states"] are the quantised instance's), ["scaled_states"]
    (the same count); spans [scaled-dp] then the inner [dp] run.
    @raise Invalid_argument when [theta < 1]. *)
