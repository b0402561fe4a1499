(** Wire protocol of the placement service.

    Transport: a byte stream (Unix-domain or TCP socket) carrying
    {e length-prefixed JSON} frames — a 4-byte big-endian unsigned
    payload length followed by exactly that many bytes of UTF-8 JSON
    ({!Tdmd_obs.Json}).  Both directions use the same framing; one
    request frame yields exactly one response frame, in order, so a
    closed-loop client can simply alternate write/read.

    Requests are objects with an ["op"] field plus op-specific
    arguments and three optional envelope fields: ["id"] (any JSON
    value, echoed verbatim in the response), ["deadline_ms"] (time
    budget; most requests still waiting in queue when it expires are
    answered with a ["deadline"] error instead of being executed, but a
    deadlined [solve] becomes an {e anytime} solve — the remaining
    budget is spent racing a solver portfolio and the best placement
    found so far is returned, flagged ["anytime": true]) and ["req"]
    (a non-empty idempotency string under which mutating ops are
    deduplicated server-side).

    Responses are objects with ["ok": true] and op-specific fields, or
    ["ok": false] with ["code"] (machine-readable, see {!section:codes})
    and ["error"] (human-readable). *)

module Json = Tdmd_obs.Json

(** {1 Addresses} *)

type addr =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of string * int  (** host, port *)

val addr_of_string : string -> (addr, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], or a bare filesystem path
    (treated as [Unix_sock]). *)

val addr_to_string : addr -> string
val sockaddr : addr -> Unix.sockaddr

(** {1 Framing} *)

val max_frame : int
(** Refuse frames larger than this (16 MiB) — a corrupt or hostile
    length prefix must not allocate unboundedly. *)

val write_all :
  ?faults:Faults.t -> ?point:string -> Unix.file_descr -> bytes -> unit
(** EINTR-safe, short-write-correct write loop (also used by the WAL).
    A partial [write] resumes at the right offset so no frame or journal
    record is ever emitted torn; [EINTR] retries without progress.
    [faults]/[point] (default ["sock.write"]) let tests shrink or
    interrupt individual passes deterministically.
    @raise Unix.Unix_error on real transport failure. *)

val write_frame : ?faults:Faults.t -> Unix.file_descr -> Json.t -> unit
(** Serialize and send one frame.  @raise Unix.Unix_error on transport
    failure (e.g. the peer is gone). *)

val read_exact :
  ?faults:Faults.t ->
  Unix.file_descr ->
  int ->
  clean_eof:bool ->
  (bytes, [ `Eof | `Bad of string ]) result
(** Read exactly [n] bytes, EINTR-safe and resuming across short reads
    (also used by the WAL to slurp segments).  An end-of-stream at
    offset 0 is [`Eof] when [clean_eof] is set and [`Bad _] otherwise;
    an end-of-stream mid-buffer is always [`Bad _]. *)

val read_frame :
  ?faults:Faults.t -> Unix.file_descr -> (Json.t, [ `Eof | `Bad of string ]) result
(** Read one frame.  [`Eof] on clean close before a length prefix;
    [`Bad _] on truncation, oversized lengths or invalid JSON.  Reads
    are EINTR-safe and resume across short returns; [faults] injects
    both at point ["sock.read"]. *)

(** {1 Field codec}

    The one decoder for every JSON format the service reads — wire
    frames, {!Journal} records, {!Session} snapshots and instance files
    — and the one encoder of the flow record [{"id", "rate", "path"}].
    [ctx] names the format in front of each error (["journal record"]
    gives ["journal record: missing field \"id\""]); without it the
    texts are the wire's. *)

val int_field : ?ctx:string -> Json.t -> string -> (int, string) result
(** ["missing field %S"] or ["field %S must be an integer"]. *)

val int_field_opt :
  ?ctx:string -> Json.t -> string -> default:int -> (int, string) result
(** Like {!int_field}, but an absent field is [default]. *)

val string_field : ?ctx:string -> Json.t -> string -> (string, string) result
(** ["missing field %S"] or ["field %S must be a string"]. *)

val int_list : Json.t -> int list option
(** A JSON list of integers; [None] for anything else. *)

val flow_fields : id:int -> rate:int -> path:int list -> (string * Json.t) list
(** [["id"; "rate"; "path"]] in that order: the flow inside an [arrive]
    frame, a journaled arrival's fields after its ["op"], and each entry
    of an instance's or snapshot's ["flows"]. *)

val flow_of_json : ?ctx:string -> Json.t -> (int * int * int list, string) result
(** [(id, rate, path)] of a flow object, unvalidated (that is
    {!Tdmd_flow.Flow.make}'s job, and journal replay must decode what
    the live path refused).  A missing or non-list ["path"] is
    ["missing flow field \"path\""]; a non-integer vertex is
    ["flow path must be a list of integers"]. *)

val flows_to_json : Tdmd_flow.Flow.t list -> Json.t
(** A ["flows"] list of {!flow_fields} objects. *)

val flows_field : ?ctx:string -> Json.t -> (Tdmd_flow.Flow.t list, string) result
(** The object's ["flows"] list, each entry through {!flow_of_json} and
    {!Tdmd_flow.Flow.make} (whose refusal is the error text). *)

(** {1 Requests} *)

type solve_target =
  | Static  (** the instance loaded at session start *)
  | Live    (** the churn engine's current flow set *)

type request =
  | Ping
  | Sleep of int  (** milliseconds; a load/test aid that occupies a worker *)
  | Solve of { algo : string; k : int; seed : int; target : solve_target }
  | Arrive of { id : int; rate : int; path : int list }
  | Depart of int
  | Rebalance of { budget : int option }
      (** one migration-budgeted rebalance pass; [budget] must be
          [>= 0] and defaults to the server's configured migration
          budget *)
  | Stats
  | Health
      (** lightweight per-shard health probe: answered inline by the
          reader thread (never queued), so it works even while every
          worker is busy or a shard is down *)
  | Shutdown

type version = V1  (** today's frames, byte-for-byte the pre-versioned wire *)

val version_to_int : version -> int

type envelope = {
  version : version;
      (** from the optional ["v"] field: absent or [1] parses as {!V1};
          anything else is refused with ["unsupported protocol version"],
          so future versions can change frames without silent misparses *)
  id : Json.t option;
  deadline_ms : int option;
  req : string option;
      (** idempotency id: the server deduplicates mutating ops
          ([arrive]/[depart]) carrying a ["req"] it has already applied,
          so a client may retry them safely (see {!Session}) *)
  shard_hint : int option;
      (** optional routing hint for sharded deployments: which shard the
          client believes owns the flow (used by [depart], whose frame
          carries no path); never required, invalid hints are ignored *)
  request : request;
}

val request_to_json :
  ?id:Json.t -> ?deadline_ms:int -> ?req:string -> ?shard_hint:int ->
  request -> Json.t
val request_of_json : Json.t -> (envelope, string) result

(** {1:codes Responses} *)

val ok : ?id:Json.t -> (string * Json.t) list -> Json.t
(** [{"ok": true, "id": id?, ...fields}]. *)

val error : ?id:Json.t -> ?retry_after_ms:int -> code:string -> string -> Json.t
(** [{"ok": false, "id": id?, "code": code, "error": msg}].  Codes in
    use: ["bad-request"] (unparseable frame / unknown op / invalid
    arguments), ["unknown-algo"] (name not in the registry; the message
    lists the registry), ["overloaded"] (bounded queue full — retry
    later), ["deadline"] (queueing budget expired before execution —
    never emitted for [solve], which answers anytime instead),
    ["shutting-down"] (server is draining), ["conflict"] (e.g.
    duplicate flow id), ["unavailable"] (the owning shard is recovering
    or poisoned — retry later).
    [retry_after_ms] adds an optional ["retry_after_ms"] integer (a
    V1-additive server hint on retryable errors; older clients ignore
    it). *)

(** {1 Instance codec}

    Inline instances for [serve --instance]: an object with ["lambda"],
    ["vertices"] (vertex count), ["edges"] ([[u,v], ...]) and ["flows"]
    ([{"id","rate","path"}, ...]).  ["undirected"] (default [true])
    controls whether each edge pair adds both arcs. *)

val instance_to_json : Tdmd.Instance.t -> Json.t
val instance_of_json : Json.t -> (Tdmd.Instance.t, string) result
