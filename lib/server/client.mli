(** Blocking client for the placement service.

    One connection, closed-loop: {!rpc} writes a frame and blocks until
    the matching response frame arrives.  For concurrent load, open one
    client per thread (the bench and the integration tests do exactly
    that).

    {!rpc_retry} adds the failure handling a long-lived caller wants:
    exponential backoff with decorrelated jitter
    ({!Tdmd_prelude.Backoff}), transparent reconnect when the server
    drops the connection, and automatic idempotency ids on mutating
    requests so a retry of an op the server already applied is
    deduplicated instead of applied twice. *)

type t

val connect :
  ?retry:Tdmd_prelude.Backoff.policy -> ?seed:int -> Protocol.addr -> t
(** [retry] (default {!Tdmd_prelude.Backoff.default}) and [seed]
    (default: nondeterministic) govern later {!rpc_retry} calls on this
    client; the initial connect itself is one attempt.
    @raise Unix.Unix_error when nothing listens at the address. *)

val connect_retry :
  ?policy:Tdmd_prelude.Backoff.policy ->
  ?seed:int ->
  Protocol.addr ->
  (t, string) result
(** Retry [connect] under [policy] — exponential backoff with
    decorrelated jitter, capped by the policy's attempt and time
    budgets — for scripts racing a server that is still binding its
    socket. *)

val rpc :
  t ->
  ?id:Protocol.Json.t ->
  ?deadline_ms:int ->
  ?req:string ->
  Protocol.request ->
  (Protocol.Json.t, string) result
(** Send one request and read one response (any well-formed response
    object is [Ok], including ["ok": false] errors — transport-level
    failures are [Error]).  No retries; a transport failure leaves the
    client disconnected and every later call fails until a reconnecting
    call ({!rpc_retry}) or a fresh client.  [req] is the idempotency id
    passed through to the server. *)

val rpc_retry :
  t ->
  ?id:Protocol.Json.t ->
  ?deadline_ms:int ->
  ?req:string ->
  ?policy:Tdmd_prelude.Backoff.policy ->
  Protocol.request ->
  (Protocol.Json.t, string) result
(** Like {!rpc}, but retries under [policy] (default: the client's
    connect-time policy) on the three failures where a retry can help:
    transport errors (connection reset / closed — reconnects first),
    ["overloaded"] responses (queue full — just waits) and
    ["unavailable"] responses (shard restarting — waits the server's
    ["retry_after_ms"] hint when pushed, a jittered backoff otherwise;
    either way the wait draws down the same attempt and wall-clock
    budget, so a stream of hints cannot stretch the give-up point).
    Definitive server answers, including errors like ["bad-request"],
    are returned as-is.  Mutating requests ([arrive]/[depart]) without
    an explicit [req] get a generated idempotency id, kept stable
    across the retries, so the server applies the op at most once even
    if the connection died after the op was executed but before the
    response arrived.

    When the policy's attempt or wall-clock budget runs out, the
    [Error] message starts with ["retry-budget-exhausted: "] — test
    with {!budget_exhausted}. *)

val budget_exhausted : string -> bool
(** [true] exactly when an [Error] from {!rpc_retry} (or
    {!connect_retry}) means the retry budget ran out, as opposed to a
    transport failure or a closed client. *)

val rpc_json : t -> Protocol.Json.t -> (Protocol.Json.t, string) result
(** Raw variant of {!rpc}: send an arbitrary JSON value as the request
    frame. *)

val close : t -> unit
