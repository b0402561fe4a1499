module Json = Tdmd_obs.Json
module Backoff = Tdmd_prelude.Backoff

type t = {
  addr : Protocol.addr;
  retry : Backoff.policy;
  seed : int option;
  mutable fd : Unix.file_descr option;  (* None = disconnected *)
  mutable closed : bool;                (* explicit [close]: terminal *)
  mutable next_req : int;
  tag : string;  (* per-client prefix for generated idempotency ids *)
}

let raw_connect addr =
  let domain =
    match addr with
    | Protocol.Unix_sock _ -> Unix.PF_UNIX
    | Protocol.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Protocol.sockaddr addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

(* Ids must not collide with a previous incarnation of this process
   talking to a server whose dedup table survived (journaled), so the
   tag mixes the pid with a wall-clock microsecond stamp. *)
let fresh_tag () =
  Printf.sprintf "c%d.%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6)

let connect ?(retry = Backoff.default) ?seed addr =
  let fd = raw_connect addr in
  { addr; retry; seed; fd = Some fd; closed = false; next_req = 0;
    tag = fresh_tag () }

let budget_exhausted_prefix = "retry-budget-exhausted: "

let budget_exhausted msg =
  String.length msg >= String.length budget_exhausted_prefix
  && String.sub msg 0 (String.length budget_exhausted_prefix)
     = budget_exhausted_prefix

let connect_retry ?(policy = Backoff.default) ?seed addr =
  let b = Backoff.start ?seed policy in
  let rec go () =
    match connect ~retry:policy ?seed addr with
    | c -> Ok c
    | exception (Unix.Unix_error _ as e) ->
      if Backoff.sleep b then go ()
      else
        Error
          (Printf.sprintf "%s%s (gave up after %d attempts over %.2f s)"
             budget_exhausted_prefix (Printexc.to_string e)
             (Backoff.attempts b) (Backoff.elapsed b))
  in
  go ()

let drop_connection t =
  match t.fd with
  | None -> ()
  | Some fd ->
    t.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let reconnect t =
  drop_connection t;
  match raw_connect t.addr with
  | fd -> t.fd <- Some fd
  | exception Unix.Unix_error _ -> ()  (* stay disconnected; caller retries *)

(* One write/read exchange.  Any transport failure drops the connection
   so a later retry starts from a clean reconnect instead of a
   half-written frame. *)
let exchange t json =
  if t.closed then Error (`Fatal "client is closed")
  else
    match t.fd with
    | None -> Error (`Transport "not connected")
    | Some fd -> (
      match Protocol.write_frame fd json with
      | exception Unix.Unix_error (err, _, _) ->
        drop_connection t;
        Error (`Transport ("write: " ^ Unix.error_message err))
      | () -> (
        match Protocol.read_frame fd with
        | Ok v -> Ok v
        | Error `Eof ->
          drop_connection t;
          Error (`Transport "connection closed by server")
        | Error (`Bad msg) ->
          (* Framing is out of sync — same reasoning as the server's
             reader: reconnect rather than misparse what follows. *)
          drop_connection t;
          Error (`Transport msg)
        | exception Unix.Unix_error (err, _, _) ->
          drop_connection t;
          Error (`Transport ("read: " ^ Unix.error_message err))))

let rpc_json t json =
  match exchange t json with
  | Ok v -> Ok v
  | Error (`Fatal msg | `Transport msg) -> Error msg

let rpc t ?id ?deadline_ms ?req request =
  rpc_json t (Protocol.request_to_json ?id ?deadline_ms ?req request)

let gen_req t =
  let n = t.next_req in
  t.next_req <- n + 1;
  Printf.sprintf "%s-%d" t.tag n

let is_mutating = function
  | Protocol.Arrive _ | Protocol.Depart _ | Protocol.Rebalance _ -> true
  | Protocol.Ping | Protocol.Sleep _ | Protocol.Solve _ | Protocol.Stats
  | Protocol.Health | Protocol.Shutdown ->
    false

(* Retryable server answers: the queue was full, or the target shard is
   restarting.  Everything else the server says ("bad-request",
   "conflict", "deadline", ...) is a real answer and retrying would not
   change it. *)
let retryable json =
  match (Json.member "ok" json, Json.member "code" json) with
  | ( Some (Json.Bool false),
      Some (Json.String ("overloaded" | "unavailable")) ) ->
    true
  | _ -> false

(* The server's push-back hint on "unavailable" replies: how long a
   shard recovery typically takes. *)
let server_delay json =
  match Json.member "retry_after_ms" json with
  | Some (Json.Int ms) when ms >= 0 -> Some (float_of_int ms /. 1000.0)
  | _ -> None

let rpc_retry t ?id ?deadline_ms ?req ?policy request =
  let req =
    match req with
    | Some _ -> req
    | None -> if is_mutating request then Some (gen_req t) else None
  in
  let json = Protocol.request_to_json ?id ?deadline_ms ?req request in
  let b = Backoff.start ?seed:t.seed (Option.value policy ~default:t.retry) in
  let give_up msg =
    (* A distinct, machine-matchable failure (see {!budget_exhausted}):
       callers treat "the server definitively said no" and "I ran out of
       retry budget" very differently. *)
    Error
      (Printf.sprintf "%s%s (gave up after %d attempts over %.2f s)"
         budget_exhausted_prefix msg (Backoff.attempts b) (Backoff.elapsed b))
  in
  (* One unit of waiting, honoring a server-pushed retry_after_ms when
     present (it draws down the same attempt/wall-clock budget as a
     jittered sleep, so a stream of hints cannot stretch the give-up
     point). *)
  let wait ~hint =
    match hint with Some d -> Backoff.sleep_for b d | None -> Backoff.sleep b
  in
  let rec attempt () =
    match exchange t json with
    | Error (`Fatal msg) -> Error msg
    | Ok resp when not (retryable resp) -> Ok resp
    | Ok resp ->
      (* Overloaded or unavailable: the connection is fine, just wait
         and resend. *)
      let reason =
        match Json.member "code" resp with
        | Some (Json.String "unavailable") -> "shard unavailable"
        | _ -> "server overloaded"
      in
      if wait ~hint:(server_delay resp) then attempt () else give_up reason
    | Error (`Transport msg) ->
      (* The request may or may not have been applied before the
         connection died — safe to resend only because mutating ops
         carry an idempotency id the server deduplicates. *)
      if wait ~hint:None then begin
        reconnect t;
        attempt ()
      end
      else give_up msg
  in
  attempt ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    drop_connection t
  end
