(* The [tdmd serve] child process: spawn, readiness, kill -9, memory.
   Every spawned server is tracked until reaped, so no exit path of the
   harness leaves one running. *)

module Client = Tdmd_server.Client
module P = Tdmd_server.Protocol
module Clock = Tdmd_obs.Clock

type t = { pid : int; log : string; mutable alive : bool }

let running : t list ref = ref []

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let kill9 t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    waitpid t.pid;
    running := List.filter (fun p -> p != t) !running
  end

let kill_all () = List.iter kill9 !running
let () = at_exit kill_all

let spawn ~exe ~args ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd)
  in
  let t = { pid; log; alive = true } in
  running := t :: !running;
  t

let exited t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
    t.alive <- false;
    running := List.filter (fun p -> p != t) !running;
    true
  | exception Unix.Unix_error _ -> false

let seconds_since t0 = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9

(* Poll until a [ping] round-trips; seconds since [t0]. *)
let wait_ready t addr ~t0 ~timeout_s =
  let ping () =
    match Client.connect addr with
    | exception Unix.Unix_error _ -> false
    | c ->
      let ok =
        match Client.rpc c P.Ping with
        | Ok j -> Tdmd_obs.Json.member "ok" j = Some (Tdmd_obs.Json.Bool true)
        | Error _ -> false
      in
      Client.close c;
      ok
  in
  let rec loop () =
    if ping () then seconds_since t0
    else if exited t then
      failwith (Printf.sprintf "tdmd serve exited during start-up (see %s)" t.log)
    else if seconds_since t0 > timeout_s then
      failwith (Printf.sprintf "tdmd serve not ready after %.0f s (see %s)" timeout_s t.log)
    else begin
      Thread.delay 0.00005;
      loop ()
    end
  in
  loop ()

(* Peak resident set ([VmHWM]) in MiB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> find ()
      in
      find ())
