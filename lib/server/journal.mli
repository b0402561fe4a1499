(** Append-only write-ahead log of churn operations.

    One record per accepted mutating request, framed on disk as

    {v 4-byte BE payload length | 4-byte BE CRC-32 of payload | payload v}

    where the payload is one compact {!Tdmd_obs.Json} object (the same
    encoder every other machine-readable output of the project uses).
    The CRC makes torn and corrupted tails detectable: {!replay} stops
    at the first record whose header is incomplete, whose length is
    implausible, whose checksum mismatches or whose JSON does not parse
    — everything before it is a valid prefix of the logged history.

    Opening for append ({!open_append}) takes an exclusive [lockf] lock
    (two servers must never interleave records), replays the file, and
    {e truncates} the torn tail in place so the next append starts at a
    clean boundary.

    Durability is governed by {!fsync_policy}; every [fsync] and every
    replayed/truncated record is counted in the telemetry passed at
    open ({!counters}). *)

(** {1 Operations} *)

type op =
  | Arrive of { id : int; rate : int; path : int list; req : string option }
  | Depart of { flow_id : int; req : string option }
      (** [req] is the client-supplied idempotency id, journaled so the
          dedup table survives a crash. *)
  | Rebalance of { budget : int; req : string option }
      (** A bounded local-search rebalance pass.  [budget] is the
          {e resolved} move budget the live pass ran with (never the
          engine default by reference), so replay spends exactly the
          same moves regardless of how the engine is later configured. *)

val op_to_json : op -> Tdmd_obs.Json.t
val op_of_json : Tdmd_obs.Json.t -> (op, string) result

val max_record : int
(** Upper bound (1 MiB) on a record's encoded payload, enforced
    identically on both sides: {!encode} refuses to produce a larger
    record, and replay treats a larger decoded length as corruption. *)

val encode : op -> string
(** The full framed record (header + payload) as written to disk.
    @raise Invalid_argument when the payload exceeds {!max_record} — an
    op that encode accepts is always readable on replay. *)

(** {1 Fsync policy} *)

val fsync_dir : string -> unit
(** Make the renames and creations just done in a directory durable. *)

type fsync_policy =
  | Always       (** fsync after every record: no acked op is ever lost *)
  | Every_n of int
      (** fsync every n-th record: at most n-1 acked ops lost per crash *)
  | Never        (** leave it to the OS: crash loses the page-cache tail *)

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** ["always"], ["none"], or ["every-N"] (e.g. ["every-16"]). *)

val fsync_policy_to_string : fsync_policy -> string

(** {1 Writer} *)

type t

val open_append :
  ?faults:Faults.t ->
  ?tel:Tdmd_obs.Telemetry.t ->
  fsync:fsync_policy ->
  string ->
  t * op list
(** [open_append ~fsync path] opens (creating if absent) and returns the
    replayed prefix; the torn tail, if any, has been truncated away.
    Named crash-points consulted on every append:
    ["wal.append.pre_write"], ["wal.append.post_write"] (data written,
    not yet fsynced) and ["wal.append.post_fsync"].
    @raise Sys_error when the file cannot be opened or is locked by
    another process. *)

val append : ?flush:bool -> t -> op -> unit
(** Write one record and apply the fsync policy.  [flush] defaults to
    [true]; group commit passes [~flush:false] for all but a batch's
    last record, so one fsync (which flushes the whole file) covers the
    batch and the ["wal.append.post_fsync"] crash-point fires once per
    batch rather than once per record.  Failure-atomic: when
    append raises (other than [Faults.Crash], which stands in for the
    process dying), the file is truncated back to its pre-call length
    and the offset restored, so a half-written record can never sit in
    front of later successful appends and silently eat them on replay.
    If that restoration itself fails — or an [fsync] fails, leaving the
    durability of acked records unknown — the journal is {e poisoned}
    and every further append raises [Sys_error] until a fresh
    open/recovery.
    @raise Invalid_argument when the op exceeds {!max_record} (nothing
    is written), [Unix.Unix_error] on I/O failure, [Sys_error] when
    poisoned, [Faults.Crash] at an armed crash-point. *)

val poisoned : t -> bool
(** [true] once a failed append/fsync has lost the append invariant;
    the journal then refuses all further appends. *)

val flush : t -> unit
(** End a group-committed batch: apply the fsync policy to the records
    appended with [~flush:false] and fire ["wal.append.post_fsync"].
    Poisons the journal if the fsync fails, exactly as {!append} would. *)

val reset : t -> unit
(** Compaction: drop every record (the state they rebuilt now lives in
    a snapshot) and fsync the empty file. *)

val size_bytes : t -> int

val close : t -> unit
(** Final [sync] (under [Always]/[Every_n]) and release the lock. *)

val abandon : t -> unit
(** Release the descriptor (and lock) {e without} syncing and poison the
    handle against further appends: the supervised-restart path, where a
    fresh recovery is about to replace this journal and a failing final
    sync must not block it.  Never raises. *)

(** {1 Read-only replay} *)

val replay : string -> (op list * int, string) result
(** [replay path] without locking or truncating: the decoded prefix and
    the number of trailing bytes that were unreadable (0 for a clean
    log).  [Error _] only when the file cannot be read at all; a missing
    file is [Ok ([], 0)]. *)

(** {1 Telemetry keys}

    Counters accumulated into the [tel] passed to {!open_append}:
    ["wal_appends"], ["wal_bytes"], ["wal_fsyncs"], ["wal_replayed"]
    (records recovered at open), ["wal_torn_truncations"] (1 when a torn
    tail was cut), ["wal_torn_bytes"], ["wal_append_failures"] (appends
    that raised after reaching the disk path). *)
