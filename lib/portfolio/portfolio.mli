(** Anytime portfolio runner: race metaheuristics and registry seeds
    across {!Tdmd_prelude.Parallel.Pool} domains.

    {!start} spawns one pool job per configured member — the simulated
    annealer, the genetic search, and restart-wrapped registry solvers
    ([Seed "gtp"], [Seed "random"], …).  Every member publishes its
    feasible strict improvements into one lock-free best-so-far cell
    ([Atomic] compare-and-swap keeping the maximum of a strict total
    order on exact-integer volume, with lexicographic-placement then
    member-rank tie-breaks), so {!best_now} is wait-free and the cell
    content never worsens.

    {b Determinism.}  Each member receives a fixed split of the one
    root [rng], taken in member-list order before any domain starts.
    With a step-count budget ([?steps]) the set of candidates every
    member publishes is therefore a pure function of [(seed, k, steps,
    members)] — and since the cell keeps the {e maximum} of a total
    order, the final {!await} answer is bit-identical across runs and
    across domain counts.  (Wall-clock deadlines trade that determinism
    for latency, by design.)

    {b Anytime contract.}  [start] synchronously publishes the greedy
    cover (member ["cover"]) before spawning anything, so once [start]
    returns, the best-so-far is feasible whenever that cover is.  The
    set-cover greedy is not complete ({!Search.greedy_cover}): on a
    feasible instance whose feasible placements it misses, an
    [await ~deadline_ms:0] can come back empty, and {!outcome_of} then
    answers the infeasible cover. *)

type member = Anneal | Genetic | Seed of string
(** [Seed name] wraps the registry solver [name] in a restart loop with
    per-restart rng splits; deterministic solvers stop after two
    identical consecutive runs.  A [Seed] naming a tree-only solver
    contributes only when {!start} received [?tree]. *)

val default_members : member list
(** [Seed "gtp"; Anneal; Genetic; Seed "hat"; Seed "random"]. *)

type best = {
  volume : int;  (** exact-integer diminished volume (maximised) *)
  bandwidth : float;  (** presentation-layer bandwidth of [placement] *)
  placement : int list;  (** sorted, feasible *)
  member : string;  (** who published it *)
  rank : int;  (** publisher's 1-based member-list position; 0 = cover *)
}

type t

val start :
  ?members:member list ->
  ?domains:int ->
  ?steps:int ->
  ?tree:Tdmd.Instance.Tree.t ->
  ?on_publish:(best -> unit) ->
  rng:Tdmd_prelude.Rng.t ->
  k:int ->
  Tdmd.Instance.t ->
  t
(** Launch the race.  [?steps] bounds each member's move count (the
    reproducible budget); omitted, members run until {!stop} or
    {!await}'s deadline cancels them.  [?domains] caps the pool size
    (default {!Tdmd_prelude.Parallel.recommended_domains}, clamped to
    the member count).  [?on_publish] observes every successful cell
    improvement, in publication order.
    @raise Invalid_argument on an empty member list or [k < 0]. *)

val best_now : t -> best option
(** Wait-free read of the best-so-far cell ([None] only while no
    feasible placement has been published — i.e. the greedy cover
    itself found nothing feasible). *)

val improvements : t -> int
(** Successful cell improvements so far (scheduling-dependent; the
    {e final placement} is deterministic, this counter is not). *)

val await : ?deadline_ms:int -> t -> best option
(** Block until every member finished (no deadline) or until
    [deadline_ms] elapses, whichever first; then {!stop} and return the
    cell.  In-flight members are cancelled cooperatively, so the call
    may overshoot the deadline by one member step. *)

val stop : t -> unit
(** Cancel cooperatively and join the pool.  Idempotent; {!best_now}
    remains readable afterwards. *)

val outcome_of :
  ?telemetry:Tdmd_obs.Telemetry.t -> t -> best option -> Tdmd.Solver_intf.outcome
(** Package an {!await} result as a registry outcome.  [None] falls
    back to the greedy cover computed at {!start} (flagged as member
    ["fallback"], infeasible when even the cover is).  Member,
    improvement-count and budget stats ride along in the telemetry. *)
