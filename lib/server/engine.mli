(** The sharded placement engine behind [tdmd serve].

    An engine owns [N] {!Shard}s — each a full {!Session} (churn engine,
    WAL segment stream, dedup table) over its own slice of the flow
    population — plus a {!Router} assigning flows to shards by path
    ownership over a {!Tdmd_topo.Partition} of the topology.  Every
    arrival, whether its path stays in one region or crosses several, is
    applied and journaled by its home shard alone (the one owning most
    of its path), so one journal records each op.

    {2 Equivalence at one shard}

    [shards = 1] is the N-shard path with N = 1, on disk too: the one
    session lives in [root/shard-0/], churn reaches it through its
    shard's queue ({!Shard.submit} → {!Session.apply_batch}), a live
    read solves the union of the shards' flows and {!churn_stats} folds
    the shards' summaries from shard 0's.
    Only the V1 reply bytes keep the single-engine form: replies carry
    no routing fields, {!rebalance} answers with the session's own reply
    and {!stats_fields} keeps the session's ["durability"] section in
    front of the ["shards"] list.

    {2 Recovery}

    Each shard recovers independently (its own snapshot ⊕ journal, via
    {!Session.recover}), so the shards recover concurrently, on
    [min shards (Tdmd_prelude.Parallel.recommended_domains ())]
    domains; then, in shard order, the flow→shard routing table is
    rebuilt from the recovered sessions' live flows and the partition is
    recomputed (it is a deterministic function of the recovered
    graph).

    A flat root (one session's [snapshot.json] and journal segments
    directly in it, as every directory written before sharding has) is
    first moved into [shard-0/] once: segments first, the snapshot last,
    each rename made durable.  A crash part-way leaves the root snapshot
    in place for the next recovery to finish the move; a root that also
    holds [shard-0/snapshot.json] is refused, neither file overwritten.

    Earlier builds also journaled each cross-shard arrival in a
    coordinator journal, [root/coord.wal], and answered the client only
    after retiring it there.  Once every shard has recovered, that file
    is removed unread: an arrival it holds unretired was never answered,
    and its retry with the same [req] applies it once, as for any op lost
    in flight.  A failed recovery leaves the file.

    {2 Supervision}

    Every durable engine carries a {!Supervisor}: a shard whose leader
    dies mid-batch ([Faults.Die], a poisoned WAL, a failing disk) is
    marked [Recovering] and restarted in place — abandon the dead
    session, {!Session.recover} a replacement from the shard directory,
    swap it into the shard array and reconcile the router — on a
    background thread under {!Tdmd_prelude.Backoff}, while every other
    shard keeps serving.  Ops aimed at a [Recovering] or [Poisoned]
    shard answer code ["unavailable"] (the server attaches
    ["retry_after_ms"]); an arrival is gated by its home shard alone,
    since the shards its path only crosses never see it.  Live reads
    ({!solve} on [Live], the server's [stats]) are refused while any
    shard is down unless the engine was built with
    [~degraded_reads:true], in which case they answer from the last
    applied state flagged ["degraded": true]. *)

type source =
  | General of Tdmd.Instance.t
  | Tree of Tdmd.Instance.Tree.t

type t

val create :
  ?supervisor:Supervisor.config ->
  ?degraded_reads:bool ->
  ?config:Session.Config.t ->
  ?shards:int ->
  ?partition:Tdmd_topo.Partition.t ->
  source ->
  t
(** [create ~config ~shards source] builds [shards] sessions from
    [config] ([Session.Config.default], 1 shard, and a degree-seeded
    {!Tdmd_topo.Partition.make} of the instance graph by default).
    When durable, [config]'s directory is the root: shard [i] lives in
    [root/shard-<i>/], and the root holds nothing else.
    [config.churn_k] is each shard's budget — the sharded live
    deployment may place up to [shards * churn_k] middleboxes in total.  [supervisor] tunes the
    health state machine ({!Supervisor.default_config} otherwise);
    [degraded_reads] (default [false]) lets live reads answer flagged
    ["degraded": true] while a shard is down.
    @raise Invalid_argument on [shards < 1] or a partition that does
    not match [shards]/the instance graph.
    @raise Sys_error if the root already holds a snapshot, flat or in
    a shard directory (use {!recover}). *)

val recover :
  ?supervisor:Supervisor.config ->
  ?degraded_reads:bool ->
  ?dedup_cap:int ->
  Session.durability ->
  (t, string) result
(** Rebuild an engine from a durability root: the one-time move of a
    flat root, per-shard recovery, router rebuild, and the removal of
    an earlier build's [coord.wal] (see above).  The shard count is
    detected from the [shard-<i>] directories; a root with neither
    [shard-0/] nor [snapshot.json] answers an [Error] naming it.

    The shards are recovered concurrently, each from its own directory
    alone, so the engine is the same whatever the number of domains:
    the one a shard-by-shard recovery in shard order builds.  Recovery
    runs before any request is served and takes no setting; its degree
    comes from the cores.

    [Error] names the lowest-numbered failing shard (["shard <i>: ..."]),
    the root when the move is refused, or a [coord.wal] that cannot be
    removed.  After an [Error] or an exception nothing stays open: every
    shard session the call opened, failing shard's neighbours included,
    is abandoned without a snapshot and its journal lock released; the
    directory recovers once repaired. *)

val shard_count : t -> int
val shard : t -> int -> Shard.t
val general : t -> Tdmd.Instance.t
val supervisor : t -> Supervisor.t

val router : t -> Router.t
(** The flow→shard routing table ({!Router.lookup}); {!recover} rebuilds
    it from the recovered sessions' live flows. *)

val retry_after_ms : t -> int
(** The supervisor's hint, for the server to attach to ["unavailable"]
    replies. *)

(** {1 Requests} *)

val arrive :
  t -> ?req:string -> id:int -> rate:int -> path:int list -> unit ->
  Session.reply
(** Route by path ownership and submit to the home shard's group-commit
    queue, whether or not the path spans shards.  Sharded replies
    additionally carry ["shard"] and — for spanning paths —
    ["cross": true]; 1-shard replies are unchanged.  Only the home shard
    is health-gated: it down answers ["unavailable"], while the shards
    the path only crosses may be down. *)

val depart : t -> ?req:string -> ?shard_hint:int -> int -> Session.reply
(** Route to the flow's remembered home shard.  For a flow the router
    does not know, the shard whose dedup table holds [req] answers (a
    retried depart that already applied is ["dedup": true] at every
    shard count); failing that [shard_hint], then shard 0, answer the
    ["conflict"] refusal of an unknown flow.  Health-gated like
    {!arrive}. *)

val rebalance : t -> ?req:string -> ?budget:int -> unit -> Session.reply
(** Run one migration-budgeted rebalance pass ({!Tdmd.Incremental.rebalance}) on
    {e every} shard — placements are per-shard, so each spends its own
    budget locally and no cross-shard commit is needed.  Without
    [budget] each shard spends its {!Session.migration_budget}, resolved
    before the op is journaled.  The same [req]
    reaches every shard (dedup tables are per-shard, making a retry
    idempotent shard by shard).  1 shard: the session's reply verbatim.
    Sharded: aggregated churn stats plus the resolved ["budget"] and the
    summed ["moves_used"]; ["dedup": true] only when every shard
    suppressed the retry.  Requires {e every} shard [Serving] (a partial
    rebalance would leave shards optimizing against different
    placements); otherwise ["unavailable"]. *)

val solve :
  t -> algo:string -> k:int -> seed:int -> target:Protocol.solve_target ->
  Session.reply
(** [Static] targets dispatch through shard 0's session
    ({!Session.solve}) and are never health-gated
    (they are a pure function of the immutable static instance).  A
    [Live] solve runs over the union of all shards' flows in
    shard-major order ({!Session.solve_on_instance}); it is refused with
    ["unavailable"] while any shard is down, unless [degraded_reads] is
    set — then it answers from the last applied state flagged
    ["degraded": true]. *)

val solve_anytime :
  t ->
  algo:string ->
  k:int ->
  seed:int ->
  target:Protocol.solve_target ->
  budget_ms:int ->
  Session.reply
(** Deadline-bounded variant, routed exactly like {!solve} (shard 0 /
    live union) but through {!Session.solve_anytime} /
    {!Session.solve_anytime_on_instance}: a portfolio race answers with
    the best feasible placement found within [budget_ms] instead of a
    deadline error. *)

(** {1 Stats and shutdown} *)

val churn_stats : t -> (string * Protocol.Json.t) list
(** {!Session.summary_fields} of the shards' summaries folded from shard
    0's: flows, moves, arrivals, departures, rebalances and bandwidth
    are summed, the placement is the union and ["feasible"] the
    conjunction.  One shard is its own summary. *)

val stats_fields : t -> (string * Protocol.Json.t) list
(** A ["shards"] list (per shard: flows, queue depth/peak, group-commit
    batch counters) and the ["health"] object, at every shard count;
    one shard puts its session's ["durability"] section
    ({!Session.durability_stats}) in front. *)

val health_fields : t -> (string * Protocol.Json.t) list
(** The [health] RPC / [stats.health] payload: ["healthy"] (every shard
    [Serving]), ["degraded_reads"], and per shard its state, restart and
    recovery-failure counters, breaker trips, last recovery duration and
    ["wal_poisoned"]. *)

type read_status = Read_ok | Read_degraded | Read_unavailable of string

val read_status : t -> read_status
(** How a live read-only op should answer right now: normally, flagged
    degraded, or refused (the server gates [stats] with this; {!solve}
    applies it internally). *)

val close : t -> unit
(** Join the supervisor's recovery threads, close every shard (final
    snapshots; a shard whose journal is poisoned or whose disk fails is
    abandoned without one — its WAL already holds everything acked). *)
