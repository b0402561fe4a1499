module Json = Tdmd_obs.Json
module Tel = Tdmd_obs.Telemetry
module Locked = Tdmd_prelude.Locked

type config = {
  addr : Protocol.addr;
  domains : int;
  queue_capacity : int;
  default_deadline_ms : int option;
  metrics_out : string option;
}

let default_config addr =
  {
    addr;
    domains = 2;
    queue_capacity = 64;
    default_deadline_ms = None;
    metrics_out = None;
  }

type conn = {
  fd : Unix.file_descr;
  write_lock : Mutex.t;
  mutable open_ : bool;
}

type t = {
  cfg : config;
  engine : Engine.t;
  listen_fd : Unix.file_descr;
  pool : Tdmd_prelude.Parallel.Pool.t;
  tel : Tel.t;
  tel_lock : Mutex.t;
  latency : Tdmd_prelude.Histogram.t;  (* seconds, log bins *)
  stop_flag : bool Atomic.t;
  mutable conns : conn list;
  conns_lock : Mutex.t;
  mutable readers : Thread.t list;
  mutable acceptor : Thread.t option;
  start_ns : int64;
  mutable stopped : bool;
}

(* All telemetry mutation funnels through here: Telemetry.t is not
   thread-safe and counts arrive from reader threads and worker domains
   alike. *)
let with_tel t f = Locked.with_lock t.tel_lock (fun () -> f t.tel)

let count t name n = with_tel t (fun tel -> Tel.count tel name n)

let record_latency t seconds =
  Locked.with_lock t.tel_lock (fun () ->
      Tdmd_prelude.Histogram.add t.latency seconds)

(* [open_] is only read/written under [write_lock], so a worker can
   never write to an fd the reader has already closed (fd numbers are
   reused by the kernel — a plain check-then-write would race). *)
let send t conn json =
  Locked.with_lock conn.write_lock (fun () ->
      if conn.open_ then begin
        try Protocol.write_frame conn.fd json
        with Unix.Unix_error _ ->
          (* Peer vanished between compute and reply; the reader thread
             will see the close and clean up. *)
          count t "write_errors" 1
      end)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_fields t =
  let pct p =
    let v =
      Locked.with_lock t.tel_lock (fun () ->
          Tdmd_prelude.Histogram.percentile t.latency p)
    in
    if Float.is_nan v then Json.Null else Json.Float (v *. 1000.0)
  in
  let counter name = Json.Int (with_tel t (fun tel -> Tel.get_count tel name)) in
  let uptime =
    Int64.to_float (Int64.sub (Tdmd_obs.Clock.now_ns ()) t.start_ns) /. 1e9
  in
  [
    ("op", Json.String "stats");
    ("uptime_s", Json.Float uptime);
    ("requests", counter "requests");
    ("completed", counter "completed");
    ("rejected", counter "rejected");
    ("timeouts", counter "timeouts");
    ("bad_requests", counter "bad_requests");
    ("errors", counter "errors");
    ("queue_depth", Json.Int (Tdmd_prelude.Parallel.Pool.queue_depth t.pool));
    ("anytime_solves", counter "anytime_solves");
    ("pool_job_errors", Json.Int (Tdmd_prelude.Parallel.Pool.job_errors ()));
    ("latency_p50_ms", pct 0.50);
    ("latency_p95_ms", pct 0.95);
    ("latency_p99_ms", pct 0.99);
    ("churn", Json.Obj (Engine.churn_stats t.engine));
  ]
  @ Engine.stats_fields t.engine

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

let op_counter = function
  | Protocol.Ping -> "op_ping"
  | Protocol.Sleep _ -> "op_sleep"
  | Protocol.Solve _ -> "op_solve"
  | Protocol.Arrive _ -> "op_arrive"
  | Protocol.Depart _ -> "op_depart"
  | Protocol.Rebalance _ -> "op_rebalance"
  | Protocol.Stats -> "op_stats"
  | Protocol.Health -> "op_health"
  | Protocol.Shutdown -> "op_shutdown"

(* An engine reply as a wire reply: its fields behind ["ok": true]. *)
let ok_reply : Session.reply -> Session.reply = function
  | Ok (Json.Obj fields) -> Ok (Protocol.ok fields)
  | Ok other -> Ok (Protocol.ok [ ("result", other) ])
  | Error _ as e -> e

let execute t ?req (request : Protocol.request) : Session.reply =
  match request with
  | Protocol.Ping -> Ok (Protocol.ok [ ("op", Json.String "ping") ])
  | Protocol.Sleep ms ->
    (* nanosleep(0) still waits out the thread's timer slack. *)
    if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.0);
    Ok (Protocol.ok [ ("op", Json.String "sleep"); ("ms", Json.Int ms) ])
  | Protocol.Solve { algo; k; seed; target } ->
    ok_reply (Engine.solve t.engine ~algo ~k ~seed ~target)
  | Protocol.Arrive { id; rate; path } ->
    ok_reply (Engine.arrive t.engine ?req ~id ~rate ~path ())
  | Protocol.Depart id -> ok_reply (Engine.depart t.engine ?req id)
  | Protocol.Rebalance { budget } ->
    ok_reply (Engine.rebalance t.engine ?req ?budget ())
  | Protocol.Stats -> (
    (* Stats aggregates live churn across every shard; while one is down
       the aggregate would silently under-count, so it is gated exactly
       like a live solve.  The [health] op below stays available for
       observing the outage itself. *)
    match Engine.read_status t.engine with
    | Engine.Read_unavailable msg -> Error ("unavailable", msg)
    | Engine.Read_ok -> Ok (Protocol.ok (stats_fields t))
    | Engine.Read_degraded ->
      Ok (Protocol.ok (stats_fields t @ [ ("degraded", Json.Bool true) ])))
  | Protocol.Health ->
    Ok
      (Protocol.ok
         (("op", Json.String "health") :: Engine.health_fields t.engine))
  | Protocol.Shutdown -> Ok (Protocol.ok [ ("op", Json.String "shutdown") ])

let reply_with_id t id = function
  | Ok (Json.Obj (("ok", ok_v) :: rest)) -> (
    match id with
    | Some idv -> Json.Obj (("ok", ok_v) :: ("id", idv) :: rest)
    | None -> Json.Obj (("ok", ok_v) :: rest))
  | Ok other -> other
  | Error (code, msg) ->
    (* [unavailable] carries the supervisor's retry hint so clients back
       off for as long as a recovery typically takes instead of
       hammering a shard that cannot answer yet. *)
    let retry_after_ms =
      if code = "unavailable" then Some (Engine.retry_after_ms t.engine)
      else None
    in
    Protocol.error ?id ?retry_after_ms ~code msg

(* The pool job for a compute op: deadline check, execute, reply,
   record latency. *)
let run_job t conn (env : Protocol.envelope) ~enqueued_ns =
  let deadline_ms =
    match env.Protocol.deadline_ms with
    | Some d -> Some d
    | None -> t.cfg.default_deadline_ms
  in
  let waited_ns = Int64.sub (Tdmd_obs.Clock.now_ns ()) enqueued_ns in
  let waited_ms = Int64.to_float waited_ns /. 1e6 in
  (* A deadlined Solve is never expired away: whatever budget survived
     the queue wait goes to an anytime portfolio race, which always has
     at least the greedy-cover answer in hand.  Every other op keeps
     the queueing-budget semantics. *)
  let anytime_budget =
    match (env.Protocol.request, deadline_ms) with
    | Protocol.Solve _, Some d ->
      Some (max 0 (d - int_of_float waited_ms))
    | _ -> None
  in
  let expired =
    match deadline_ms with
    | Some d -> Option.is_none anytime_budget && waited_ms > float_of_int d
    | None -> false
  in
  if expired then begin
    count t "timeouts" 1;
    send t conn
      (Protocol.error ?id:env.Protocol.id ~code:"deadline"
         (Printf.sprintf "deadline of %d ms expired after %.1f ms in queue"
            (Option.get deadline_ms)
            (Int64.to_float waited_ns /. 1e6)))
  end
  else begin
    let result =
      try
        match (env.Protocol.request, anytime_budget) with
        | Protocol.Solve { algo; k; seed; target }, Some budget_ms ->
          count t "anytime_solves" 1;
          ok_reply (Engine.solve_anytime t.engine ~algo ~k ~seed ~target ~budget_ms)
        | _ ->
          execute t ?req:env.Protocol.req env.Protocol.request
      with
      | Faults.Crash point ->
        (* A planned crash must take the whole process down as abruptly
           as kill -9 would: no reply, no drain, no at_exit cleanup. *)
        (* tdmd-lint: allow no-direct-io — last words before _exit 137; telemetry would never be flushed *)
        prerr_endline ("tdmd serve: injected crash at " ^ point);
        Unix._exit 137
      | e -> Error ("internal", Printexc.to_string e)
    in
    (match result with
    | Ok _ -> count t "completed" 1
    | Error _ -> count t "errors" 1);
    send t conn (reply_with_id t env.Protocol.id result);
    record_latency t
      (Int64.to_float (Int64.sub (Tdmd_obs.Clock.now_ns ()) enqueued_ns) /. 1e9)
  end

(* ------------------------------------------------------------------ *)
(* Connection reader                                                   *)
(* ------------------------------------------------------------------ *)

let close_conn t conn =
  Locked.with_lock t.conns_lock (fun () ->
      t.conns <- List.filter (fun c -> c != conn) t.conns);
  Locked.with_lock conn.write_lock (fun () ->
      if conn.open_ then begin
        conn.open_ <- false;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      end)

let reader t conn () =
  let rec loop () =
    match Protocol.read_frame conn.fd with
    | exception Unix.Unix_error _ -> close_conn t conn
    | Error `Eof -> close_conn t conn
    | Error (`Bad msg) ->
      count t "requests" 1;
      count t "bad_requests" 1;
      send t conn (Protocol.error ~code:"bad-request" msg);
      (* Framing may be out of sync after a bad frame; drop the
         connection rather than misparse everything that follows. *)
      close_conn t conn
    | Ok json -> (
      count t "requests" 1;
      match Protocol.request_of_json json with
      | Error msg ->
        count t "bad_requests" 1;
        send t conn (Protocol.error ?id:(Json.member "id" json) ~code:"bad-request" msg);
        loop ()
      | Ok env -> (
        count t (op_counter env.Protocol.request) 1;
        if Atomic.get t.stop_flag then begin
          send t conn
            (Protocol.error ?id:env.Protocol.id ~code:"shutting-down"
               "server is draining");
          loop ()
        end
        else begin
          match env.Protocol.request with
          | Protocol.Ping | Protocol.Stats | Protocol.Health ->
            (* Answered inline: cheap, and must work under full load —
               [health] especially must answer while shards recover. *)
            (match execute t env.Protocol.request with
            | Ok _ as r ->
              count t "completed" 1;
              send t conn (reply_with_id t env.Protocol.id r)
            | Error _ as r ->
              count t "errors" 1;
              send t conn (reply_with_id t env.Protocol.id r));
            loop ()
          | Protocol.Shutdown ->
            count t "completed" 1;
            send t conn (reply_with_id t env.Protocol.id (execute t env.Protocol.request));
            Atomic.set t.stop_flag true;
            loop ()
          | Protocol.Sleep _ | Protocol.Solve _ | Protocol.Arrive _
          | Protocol.Depart _ | Protocol.Rebalance _ ->
            let enqueued_ns = Tdmd_obs.Clock.now_ns () in
            let job () = run_job t conn env ~enqueued_ns in
            if Tdmd_prelude.Parallel.Pool.submit t.pool job then begin
              with_tel t (fun tel ->
                  Tel.gauge tel "queue_depth"
                    (float_of_int (Tdmd_prelude.Parallel.Pool.queue_depth t.pool)))
            end
            else begin
              count t "rejected" 1;
              send t conn
                (Protocol.error ?id:env.Protocol.id ~code:"overloaded"
                   (Printf.sprintf "request queue full (capacity %d)"
                      t.cfg.queue_capacity))
            end;
            loop ()
        end))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Acceptor and lifecycle                                              *)
(* ------------------------------------------------------------------ *)

(* [close] from another thread does not wake a blocked [accept] on
   Linux, so the acceptor polls readiness with a short [select] and
   re-checks the stop flag between polls. *)
let acceptor t () =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      match Unix.select [ t.listen_fd ] [] [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()  (* listener closed: drain *)
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception Unix.Unix_error _ -> ()
        | fd, _peer ->
          let conn = { fd; write_lock = Mutex.create (); open_ = true } in
          Locked.with_lock t.conns_lock (fun () ->
              t.conns <- conn :: t.conns;
              t.readers <- Thread.create (reader t conn) () :: t.readers);
          loop ())
    end
  in
  loop ()

let start cfg engine =
  if cfg.domains < 1 then invalid_arg "Server.start: domains must be >= 1";
  (* A worker writing to a connection whose peer died must get EPIPE,
     not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (match cfg.addr with
  | Protocol.Unix_sock path when Sys.file_exists path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let domain_of_addr = function
    | Protocol.Unix_sock _ -> Unix.PF_UNIX
    | Protocol.Tcp _ -> Unix.PF_INET
  in
  let listen_fd = Unix.socket (domain_of_addr cfg.addr) Unix.SOCK_STREAM 0 in
  (match cfg.addr with
  | Protocol.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | Protocol.Unix_sock _ -> ());
  Unix.bind listen_fd (Protocol.sockaddr cfg.addr);
  Unix.listen listen_fd 64;
  let t =
    {
      cfg;
      engine;
      listen_fd;
      pool =
        Tdmd_prelude.Parallel.Pool.create ~domains:cfg.domains
          ~capacity:cfg.queue_capacity ();
      tel = Tel.create ();
      tel_lock = Mutex.create ();
      latency =
        Tdmd_prelude.Histogram.create ~scale:Tdmd_prelude.Histogram.Log ~lo:1e-6
          ~hi:100.0 ~bins:192 ();
      stop_flag = Atomic.make false;
      conns = [];
      conns_lock = Mutex.create ();
      readers = [];
      acceptor = None;
      start_ns = Tdmd_obs.Clock.now_ns ();
      stopped = false;
    }
  in
  t.acceptor <- Some (Thread.create (acceptor t) ());
  t

let request_stop t = Atomic.set t.stop_flag true

let emit_final_metrics t =
  match t.cfg.metrics_out with
  | None -> ()
  | Some file -> (
    try
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Tdmd_obs.Sink.emit
            (Tdmd_obs.Sink.of_channel oc)
            (Tdmd_obs.Sink.record ~event:"serve"
               ~extra:
                 (("addr", Json.String (Protocol.addr_to_string t.cfg.addr))
                 :: List.filter (fun (k, _) -> k <> "op") (stats_fields t))
               t.tel))
    with Sys_error _ -> ())

let wait t =
  while not (Atomic.get t.stop_flag) do
    Thread.delay 0.02
  done;
  if not t.stopped then begin
    t.stopped <- true;
    (* 1. No new connections: the acceptor notices the stop flag at its
       next poll; only then is the listener closed. *)
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* 2. Readers now answer "shutting-down"; everything already queued
       runs to completion and is answered. *)
    Tdmd_prelude.Parallel.Pool.shutdown t.pool;
    (* 3. Wake readers blocked in read and let them clean up. *)
    let conns, readers =
      Locked.with_lock t.conns_lock (fun () -> (t.conns, t.readers))
    in
    List.iter
      (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter Thread.join readers;
    emit_final_metrics t;
    match t.cfg.addr with
    | Protocol.Unix_sock path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Protocol.Tcp _ -> ()
  end
