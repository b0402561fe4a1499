(** Server-side session: one shard's loaded instance and churn engine.

    A session pins the data every request runs against: the static
    instance loaded at startup (tree or general) and a churn engine
    ({!Tdmd.Incremental}) over the same graph that {!apply_batch}
    mutates — the engine reaches it only through its shard's
    group-commit queue ({!Shard.submit}), and live reads through the
    union of its shards' {!live_flows}.  All mutating and
    snapshot-taking operations are serialized behind an internal mutex,
    so session methods may be called from any worker domain.

    {2 Durability}

    With a {!durability} config the session becomes crash-safe: every
    churn op is appended to a write-ahead journal ({!Journal}) {e before}
    it mutates the engine, and the engine is periodically serialized to
    an atomic snapshot that truncates the journal.  {!recover} rebuilds
    a bit-identical session from the directory after a crash — same
    answers to every query and the same behaviour for every future
    event.  Mutating requests carrying an idempotency id (the envelope
    ["req"] field) are deduplicated across the crash, so a client retry
    of an op the server applied just before dying is suppressed rather
    than applied twice. *)

type t

(** {1 Durability configuration} *)

type durability = {
  dir : string;  (** journal + snapshot directory, created if missing *)
  fsync : Journal.fsync_policy;
  snapshot_every : int;
      (** write a snapshot (and truncate the journal) after this many
          journaled ops; [0] = only at startup and {!close} *)
  faults : Faults.t;  (** deterministic fault plan for tests *)
}

val durability :
  ?fsync:Journal.fsync_policy ->
  ?snapshot_every:int ->
  ?faults:Faults.t ->
  string ->
  durability
(** [durability dir] with [fsync] defaulting to {!Journal.Always} and
    [snapshot_every] to [0].
    @raise Invalid_argument if [snapshot_every < 0]. *)

val snapshot_file : durability -> string
(** [dir/snapshot.json] — where the atomic snapshot lives. *)

(** {1 Construction} *)

val default_dedup_cap : int
(** Default bound (8192) on remembered idempotency ids.  The dedup
    table is FIFO-bounded: past the cap the oldest id is evicted, so a
    retry is only suppressed when it lands within the last [cap]
    mutating ops — and memory/snapshot size stay O(cap) under unbounded
    churn. *)

(** Everything a session's behaviour depends on, in one record — shards
    and tests build sessions uniformly from a [Config.t] instead of
    threading four optional arguments. *)
module Config : sig
  type t = {
    churn_k : int;  (** middlebox budget of the churn engine *)
    migration_budget : int;
        (** moves the rebalancer may spend after each churn event
            (see {!Tdmd.Incremental.create}); 0 = pin-only *)
    dedup_cap : int;  (** >= 1; see {!default_dedup_cap} *)
    durability : durability option;  (** [None] = in-memory only *)
  }

  val default : t
  (** [churn_k = 8], [migration_budget = 0],
      [dedup_cap = default_dedup_cap], not durable. *)
end

val create : ?config:Config.t -> Tdmd.Instance.t -> t
(** Serve a general instance: tree-only solvers are refused with a
    registry listing.  With [config.durability] the directory is
    initialised (journal opened + locked, seed snapshot written) so it
    is self-contained from the first op.
    @raise Invalid_argument if [config.dedup_cap < 1].
    @raise Sys_error if the directory already holds a snapshot (use
    {!recover}) or the journal is locked by another process. *)

val create_tree : ?config:Config.t -> Tdmd.Instance.Tree.t -> t
(** Serve a tree instance: every registry name resolves (general
    solvers see the {!Tdmd.Instance.Tree.to_general} view).  The
    snapshot stores that general view plus the root, from which
    {!recover} rebuilds the same tree view. *)

val recover : ?dedup_cap:int -> durability -> (t, string) result
(** Rebuild a session from [cfg.dir]: parse the snapshot, restore the
    churn engine ({!Tdmd.Incremental.restore}), then replay the journal
    segment the snapshot names — truncating a torn tail — and rebuild
    the dedup table (in its original insertion order, re-bounded by
    [?dedup_cap]) from both.  The result is bit-identical to the
    pre-crash session.  Journal segments whose epoch is {e not} the one
    the snapshot names — orphans of a crash mid-rotation — are deleted,
    as is a leftover snapshot temp file.  Takes over the journal
    (exclusive lock) and continues appending to it.  The snapshot is
    read through {!Protocol}'s field codec with [ctx] ["snapshot"], so
    an unreadable one fails with e.g. ["snapshot: missing field
    \"epoch\""]; its ["static"] instance and ["flows"] use the same
    encoding as an [--instance] file. *)

val general : t -> Tdmd.Instance.t
(** The static instance's general view (used by tests and the bench to
    cross-check server answers against direct registry calls). *)

type reply = (Protocol.Json.t, string * string) result
(** [Ok response_obj] or [Error (code, message)] in the sense of
    {!Protocol.error}. *)

val solve : t -> algo:string -> k:int -> seed:int -> reply
(** Solve the loaded static instance (every registry name on a tree
    session) by registry name with [Rng.create seed] — the answer is
    bit-identical to calling the registry directly with the same seed.
    Response fields: ["algo"], ["k"], ["seed"], ["on"] (["static"]),
    ["placement"] (sorted vertex list), ["bandwidth"], ["feasible"],
    ["telemetry"].  Unknown names answer ["unknown-algo"], solver
    refusals ["bad-request"]. *)

val solve_on_instance :
  algo:string ->
  k:int ->
  seed:int ->
  target:Protocol.solve_target ->
  Tdmd.Instance.t ->
  reply
(** {!solve}'s runner against an explicit instance and the general
    registry: the engine's [Live] solves run it over the union of its
    shards' flows. *)

val solve_anytime_on_instance :
  ?tree:Tdmd.Instance.Tree.t ->
  algo:string ->
  k:int ->
  seed:int ->
  target:Protocol.solve_target ->
  budget_ms:int ->
  Tdmd.Instance.t ->
  reply
(** Deadline-bounded solve: race a {!Tdmd_portfolio.Portfolio} for at
    most [budget_ms] and answer with the best feasible placement found
    so far instead of a deadline error.  ["portfolio"] /["anneal"] /
    ["genetic"] select their members directly; any other known registry
    name races as a restart-wrapped seed against the two metaheuristics
    (tree-only names need [?tree]).  The response carries the {!solve}
    fields plus ["anytime"]:true, ["budget_ms"], ["member"] (who found
    the answer; ["fallback"] when nothing was published within the
    budget) and ["improvements"]. *)

val solve_anytime : t -> algo:string -> k:int -> seed:int -> budget_ms:int -> reply
(** {!solve_anytime_on_instance} against this session's static instance,
    with the tree view passed through when the session serves a tree. *)

val migration_budget : t -> int
(** The churn engine's configured migration budget: the budget an
    engine rebalance without [?budget] spends, resolved before the op
    is built so the journal records the number. *)

(** {1 Batched churn (group commit)} *)

val apply_batch : t -> Journal.op list -> reply list
(** Apply a batch of churn ops under {e one} lock acquisition and — when
    durable — {e one} fsync (each record is appended with
    [Journal.append ~flush:false]; a single {!Journal.flush} at batch
    end makes the whole batch durable before any reply is returned, so
    the acked-implies-durable invariant is batch-granular, never
    weakened).  Each op is journaled exactly as given, so its [req] is
    its idempotency id and a [Rebalance] carries its resolved budget
    (a negative one answers ["bad-request"]).  Replies come back in op order; a per-op failure
    (bad-request, conflict, dedup hit, journal I/O error) answers that
    op and the rest of the batch proceeds.  If the batch-end fsync
    fails, every reply whose record's durability is now unknown is
    downgraded to [Error ("internal", _)] and the journal is poisoned.

    Replies carry the post-op {!churn_stats}, plus ["budget"] and
    ["moves_used"] for a [Rebalance]; a duplicate id or an unknown
    departure answers ["conflict"] before reaching the journal, and an
    op whose [req] is remembered answers ["dedup": true]. *)

(** {1 Live-state accessors (for the sharded engine)} *)

val live_flows : t -> Tdmd_flow.Flow.t list
(** The churn engine's active flows, under the lock. *)

val live_flow_count : t -> int
(** Number of active flows, O(1) under the lock (no summary built). *)

val seen : t -> string -> bool
(** Whether the dedup table holds this idempotency id, under the lock:
    the engine routes a depart whose flow it no longer knows to the
    shard that already applied it. *)

type churn_summary = {
  live_flows : int;
  placement : Tdmd.Placement.t;
  bandwidth : float;
  feasible : bool;
  moves : int;
  arrivals : int;
  departures : int;
  rebalances : int;
  rebalance_moves : int;
}

val churn_summary : t -> churn_summary
(** The churn engine's deployment summary, under the lock. *)

val summary_fields : churn_summary -> (string * Protocol.Json.t) list
(** ["flows"], ["placement"], ["bandwidth"], ["feasible"], ["moves"],
    ["arrivals"], ["departures"], ["rebalances"], ["rebalance_moves"]:
    the one rendering of a summary, shared by churn replies, {!churn_stats}
    and the engine's cross-shard sum. *)

val churn_stats : t -> (string * Protocol.Json.t) list
(** [summary_fields (churn_summary t)]. *)

val durability_stats : t -> (string * Protocol.Json.t) list
(** A single ["durability"] field (empty list when the session is not
    durable): dir, fsync policy, epoch, journal bytes, WAL/replay/
    truncation/snapshot/dedup counters. *)

val durability_telemetry : t -> Tdmd_obs.Telemetry.t
(** Counters behind {!durability_stats} — ["wal_appends"],
    ["wal_bytes"], ["wal_fsyncs"], ["wal_replayed"],
    ["wal_torn_truncations"], ["wal_torn_bytes"],
    ["wal_append_failures"], ["wal_stale_segments_removed"],
    ["snapshots"], ["dedup_hits"], ["dedup_evictions"].  Read it only
    while the session is quiescent. *)

val wal_poisoned : t -> bool
(** [true] once a failed append/fsync has poisoned the journal — every
    further mutating op will be refused until the session is recovered.
    The supervisor polls this after each batch to trigger a restart.
    Always [false] for non-durable sessions. *)

val close : t -> unit
(** Durable sessions: write a final snapshot (so a restart replays
    nothing) and release the journal.  Harmless no-op otherwise (and on
    {!abandon}ed sessions). *)

val abandon : t -> unit
(** Retire the session without a final snapshot: release the journal
    descriptor (ignoring errors — the journal may be poisoned) and
    fence all future ops, which answer [Error ("unavailable", _)] from
    then on.  The supervised-restart path: the on-disk state is the
    authority and a fresh {!recover} replaces this session.  Idempotent;
    never raises. *)
