module Locked = Tdmd_prelude.Locked
module Backoff = Tdmd_prelude.Backoff

type state = Serving | Recovering | Poisoned

let state_to_string = function
  | Serving -> "serving"
  | Recovering -> "recovering"
  | Poisoned -> "poisoned"

type config = {
  max_failures : int;
  backoff : Backoff.policy;
  retry_after_ms : int;
}

let default_config =
  {
    max_failures = 5;
    (* Unlimited attempts/budget: the consecutive-failure breaker is the
       only thing that stops the loop, so K governs exactly. *)
    backoff = Backoff.policy ~base:0.01 ~cap:0.25 ~max_attempts:0 ~budget:0.0 ();
    retry_after_ms = 50;
  }

let config ?(max_failures = default_config.max_failures)
    ?(backoff = default_config.backoff)
    ?(retry_after_ms = default_config.retry_after_ms) () =
  if max_failures < 1 then
    invalid_arg "Supervisor.config: max_failures must be >= 1";
  if retry_after_ms < 0 then
    invalid_arg "Supervisor.config: retry_after_ms must be >= 0";
  { max_failures; backoff; retry_after_ms }

type shard_health = {
  state : state;
  restarts : int;
  failures : int;
  consecutive_failures : int;
  breaker_trips : int;
  last_recovery_ms : float;
  last_error : string option;
}

type cell = {
  mutable st : state;
  mutable restarts : int;
  mutable failures : int;
  mutable consecutive : int;
  mutable trips : int;
  mutable last_recovery_ms : float;
  mutable last_error : string option;
}

type t = {
  cfg : config;
  faults : Faults.t;
  restart : (int -> (unit, string) result) option;
  cells : cell array;
  lock : Mutex.t;
  mutable stopping : bool;
  mutable threads : Thread.t list;
}

let create ?(config = default_config) ?(faults = Faults.none) ~restart ~shards
    () =
  if shards < 1 then invalid_arg "Supervisor.create: shards must be >= 1";
  if config.max_failures < 1 then
    invalid_arg "Supervisor.create: max_failures must be >= 1";
  {
    cfg = config;
    faults;
    restart;
    cells =
      Array.init shards (fun _ ->
          {
            st = Serving;
            restarts = 0;
            failures = 0;
            consecutive = 0;
            trips = 0;
            last_recovery_ms = 0.0;
            last_error = None;
          });
    lock = Mutex.create ();
    stopping = false;
    threads = [];
  }

let retry_after_ms t = t.cfg.retry_after_ms

let all_serving t =
  Locked.with_lock t.lock (fun () ->
      Array.for_all (fun c -> c.st = Serving) t.cells)

let guard t i =
  Locked.with_lock t.lock (fun () ->
      match t.cells.(i).st with
      | Serving -> Ok ()
      | Recovering -> Error (Printf.sprintf "shard %d is recovering; retry" i)
      | Poisoned ->
        Error
          (Printf.sprintf
             "shard %d is poisoned (circuit breaker open after %d consecutive \
              failed recoveries)"
             i t.cfg.max_failures))

let health t =
  Locked.with_lock t.lock (fun () ->
      Array.map
        (fun c ->
          {
            state = c.st;
            restarts = c.restarts;
            failures = c.failures;
            consecutive_failures = c.consecutive;
            breaker_trips = c.trips;
            last_recovery_ms = c.last_recovery_ms;
            last_error = c.last_error;
          })
        t.cells)

(* The supervisor's single sanctioned catch-and-restart site.  Anything
   a shard raises mid-op or mid-recovery — Faults.Die, a poisoned
   journal's Sys_error, EIO from a dying disk, an invalid snapshot —
   must count as a shard failure and feed the restart machinery, never
   kill the serving process.  Faults.Crash stays fatal by design: it is
   the stand-in for kill -9 and the crash-recovery tests depend on the
   process actually dying. *)
let absorb f =
  try Ok (f ()) with
  | Faults.Crash _ as e -> raise e
  (* tdmd-lint: allow catch-all — the single sanctioned catch-and-restart site: any shard failure must become a supervised restart, not a process death; Crash is re-raised above *)
  | _ as e -> Error (Printexc.to_string e)

let run_restart t i =
  match
    absorb (fun () ->
        Faults.hit t.faults "sup.recover";
        match t.restart with
        | None -> Error "shard has no restart procedure (not durable)"
        | Some f -> f i)
  with
  | Ok (Ok ()) -> Ok ()
  | Ok (Error msg) | Error msg -> Error msg

let recover_loop t i =
  let cell = t.cells.(i) in
  let b = Backoff.start ~seed:(0x5eed + i) t.cfg.backoff in
  let trip () =
    Locked.with_lock t.lock (fun () ->
        cell.st <- Poisoned;
        cell.trips <- cell.trips + 1)
  in
  let rec attempt () =
    (* Backoff before each try: the dying leader gets time to unwind and
       a flapping disk is not hammered. *)
    if not (Backoff.sleep b) then trip ()
    else if Locked.with_lock t.lock (fun () -> t.stopping) then ()
    else begin
      let t0 = Unix.gettimeofday () in
      match run_restart t i with
      | Ok () ->
        Locked.with_lock t.lock (fun () ->
            cell.st <- Serving;
            cell.restarts <- cell.restarts + 1;
            cell.consecutive <- 0;
            cell.last_recovery_ms <- (Unix.gettimeofday () -. t0) *. 1000.0;
            cell.last_error <- None)
      | Error msg ->
        let tripped =
          Locked.with_lock t.lock (fun () ->
              cell.failures <- cell.failures + 1;
              cell.consecutive <- cell.consecutive + 1;
              cell.last_error <- Some msg;
              cell.consecutive >= t.cfg.max_failures)
        in
        if tripped then trip () else attempt ()
    end
  in
  attempt ()

let report_failure t i ~reason =
  let spawn =
    Locked.with_lock t.lock (fun () ->
        match t.cells.(i).st with
        | Recovering | Poisoned -> false
        | Serving ->
          t.cells.(i).st <- Recovering;
          t.cells.(i).last_error <- Some reason;
          not t.stopping)
  in
  if spawn then begin
    let th = Thread.create (fun () -> recover_loop t i) () in
    Locked.with_lock t.lock (fun () -> t.threads <- th :: t.threads)
  end

let protect t i ~fallback f =
  match absorb f with
  | Ok r -> r
  | Error reason ->
    report_failure t i ~reason;
    fallback reason

let shutdown t =
  let threads =
    Locked.with_lock t.lock (fun () ->
        t.stopping <- true;
        let ths = t.threads in
        t.threads <- [];
        ths)
  in
  List.iter Thread.join threads
