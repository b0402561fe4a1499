(** The paper's two comparison schemes (Sec. 6.2).

    - Random: deploy on k uniformly random vertices.  The paper only
      scores feasible deployments and regenerates otherwise; [random]
      therefore retries with fresh draws, and after [attempts] failures
      falls back to greedy set-cover picks so the caller always gets a
      feasible plan when one exists at this budget (the telemetry
      counts the retries, which the harness logs).

    - Best-effort: "deploys one middlebox on the vertex which can reduce
      the bandwidth of flows mostly, until it deploys k middleboxes".
      Implemented as the *non-adaptive* ranking by singleton decrement
      d_∅(v) — the natural reading that distinguishes it from GTP's
      adaptive greedy (see DESIGN.md §5.1) — read as the singleton
      diminished volume off one {!Inc_oracle} (every decrement is 0 at
      λ = 1, so the ranking then keeps vertex order); like GTP it
      finishes with covering picks when unserved flows remain within
      the budget. *)

val random :
  Tdmd_prelude.Rng.t -> ?attempts:int -> k:int -> Instance.t -> Solver_intf.outcome
(** Default [attempts] = 200.  Telemetry: counters ["budget"],
    ["retries"] (infeasible draws discarded), ["placement_size"]; span
    [random]. *)

val best_effort : k:int -> Instance.t -> Solver_intf.outcome
(** Telemetry: counters ["budget"], ["singleton_evals"], ["retries"]
    (always 0), ["placement_size"]; span [best-effort]. *)
