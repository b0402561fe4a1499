(** Dynamic deployment maintenance under flow churn.

    The paper solves a static snapshot; operational networks see flows
    arrive and depart (its own Sec. 6.1 cites demand changes as why
    links are over-provisioned).  This extension maintains a deployment
    of at most [k] boxes across {!Tdmd_traffic.Temporal}-style events
    with bounded churn:

    - arrival: if the new flow leaves the deployment infeasible and
      budget remains, pick the new flow's highest-marginal on-path
      vertex (first maximum in path order; no pick when that vertex is
      already deployed); then {!Cover_fixup.within} spends leftover
      budget on the vertex covering the most unserved flows and, if
      the stragglers still cannot all be covered, drops the latest
      picks one at a time and re-covers — unless more than [k] of the
      live flows have pairwise vertex-disjoint paths
      ({!Inc_oracle.disjoint_paths}, one O(Σ_f |p_f| + |V|) pass run
      only after the first cover fails), which proves no [k] boxes
      serve them all, so the first cover stands without retries;
    - departure: drop boxes that no longer serve any flow, then spend
      one freed slot on the current best-marginal vertex when it still
      helps, then repair as on arrival (early exit included) if flows
      are unserved;
    - rebalance: bounded local search in the Lukovszki–Rost–Schmid
      spirit ("Approximate and Incremental Network Function
      Placement") — spend at most a {e migration budget} of instance
      moves on strictly-improving adds and single-box swaps, keeping
      the placement near-optimal as churn drifts it.

    The engine owns an {!Inc_oracle.empty} oracle that follows the
    live flows through {!Inc_oracle.add_flow} / {!Inc_oracle.remove_flow},
    and every decision — the picks, the repair, the rebalancer's swap
    scores — reads exact integer diminished-volume answers off it: no
    event builds an {!Instance} and no comparison uses a float
    threshold.  Marginals and cover counts come off the oracle's gain
    ledger: a marginal in O(1), a greedy or cover pick in one O(|V|)
    pass.  The cover fix-up edits the engine's deployment in place (an
    arrival adds at most its on-path pick before covering), so the
    ledger stays current across it.  The rebalancer prices each placed
    box's best replacement read-only ({!Inc_oracle.best_replacement}),
    in O(path lengths of the flows that box serves) plus one O(|V|)
    pass per deployment it scans.  The flow store is an arrival-ordered
    tombstone list with an id index, O(1) amortised per event.

    Every deployed/removed box counts as one *move* — the
    quality-vs-churn trade against from-scratch GTP is an ablation
    bench ([bench churn-timeline]). *)

type t

val create :
  ?migration_budget:int ->
  graph:Tdmd_graph.Digraph.t ->
  lambda:float ->
  k:int ->
  unit ->
  t
(** [migration_budget] (default 0) is the number of instance moves the
    rebalancer may spend after {e each} churn event: 0 keeps the
    historical pin-only behaviour bit-for-bit, larger budgets trade
    migrations for bandwidth, and a huge budget approximates
    recompute-from-scratch.
    @raise Invalid_argument if λ lies outside [0, 1] (NaN included),
    [k < 1] or [migration_budget < 0]. *)

val arrive : t -> Tdmd_flow.Flow.t -> unit
(** @raise Invalid_argument on duplicate flow ids or invalid paths. *)

val depart : t -> int -> unit
(** Remove the flow with the given id.
    @raise Invalid_argument on unknown ids — callers must check
    {!mem_flow} first (the serve layer surfaces this as a churn
    conflict instead of silently counting a phantom departure). *)

val rebalance : ?budget:int -> t -> int
(** Run one bounded local-search pass: greedy adds while deployment
    budget remains (one move each), then best strictly-improving
    single-box swaps (two moves each), spending at most [budget] moves
    (default: the engine's migration budget).  Deterministic — ties
    break towards the earliest-placed box and the lowest vertex — so
    journal replay reproduces it bit-for-bit.  Returns the number of
    moves actually spent.
    @raise Invalid_argument on negative budgets. *)

val flows : t -> Tdmd_flow.Flow.t list

val mem_flow : t -> int -> bool
(** O(1) id-index lookup: is a flow with this id currently live?  The
    serve path checks this on every arrival (duplicate-id conflict)
    and departure (unknown-id conflict), so it must not scan
    {!flows}. *)

val flow_count : t -> int
(** Number of live flows, O(1) (equals [List.length (flows t)]). *)

val placement : t -> Placement.t

val volume : t -> int
(** D of the deployment over the live flows, O(1). *)

val bandwidth : t -> float
(** b over the live flows, rendered from {!volume} in O(1): the bits of
    [Bandwidth.total (instance t) (placement t)]. *)

val feasible : t -> bool
val moves : t -> int
(** Total placement changes so far (adds + removals). *)

val migration_budget : t -> int
(** The per-event rebalancing budget this engine was created with. *)

val rebalances : t -> int
(** Rebalance passes run so far (explicit {!rebalance} calls plus the
    automatic post-event pass when the migration budget is positive). *)

val rebalance_moves : t -> int
(** Moves spent by rebalance passes (a subset of {!moves}). *)

val telemetry : t -> Tdmd_obs.Telemetry.t
(** Lifetime telemetry: counters ["moves"], ["arrivals"],
    ["departures"], ["budget"], ["migration_budget"], ["rebalances"],
    ["rebalance_moves"].  [moves] above is a deprecated alias of the
    ["moves"] counter. *)

val instance : t -> Instance.t
(** Current snapshot as a static instance, built and validated on each
    call (live solves, tests); no event calls it. *)

(** {1 State export / restore}

    The placement service snapshots engines to disk and rebuilds them
    after a crash (see [Tdmd_server.Session]); rebuilt engines must be
    {e bit-identical} — same answers to every observation above and the
    same behaviour for every future event.  That requires exporting the
    internal orders, not just the sets. *)

val placed_order : t -> int list
(** The deployment in {e selection} order (unlike {!placement}, which
    sorts).  Selection order feeds future replacement and swap
    decisions, so a faithful restore needs it. *)

val restore :
  ?migration_budget:int ->
  ?rebalances:int ->
  ?rebalance_moves:int ->
  graph:Tdmd_graph.Digraph.t ->
  lambda:float ->
  k:int ->
  flows:Tdmd_flow.Flow.t list ->
  placed:int list ->
  moves:int ->
  arrivals:int ->
  departures:int ->
  unit ->
  t
(** Rebuild an engine from exported state: [flows] in arrival order
    (as returned by {!flows}), [placed] in selection order (as returned
    by {!placed_order}), the lifetime counters, and the migration
    budget the engine ran with (replaying journalled events only
    reproduces the automatic rebalance passes under the same budget).
    The result is bit-identical to the engine the state was exported
    from.
    @raise Invalid_argument on invalid λ/flows/placement/counters,
    including duplicate placed vertices. *)
