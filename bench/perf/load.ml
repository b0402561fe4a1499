(* Closed-loop load: one systhread per client, each on its own
   connection, sending its next request only when the previous reply
   has arrived.  Latency is taken from request write to reply read
   ([Client.rpc], so client-side frame encode/decode is included). *)

module P = Tdmd_server.Protocol
module Client = Tdmd_server.Client
module Json = Tdmd_obs.Json
module Clock = Tdmd_obs.Clock

type span = { sname : string; sid : string; start_ns : int64; end_ns : int64 }

(* A request as the client saw it complete; replays re-apply these in
   completion order, which keeps each client's own order. *)
type sent = { req : P.request; done_ns : int64 }

type log = {
  lat_ms : Pct.Buf.t;  (** per op; [infinity] for a failed request *)
  mutable ok : int;
  mutable failed : int;
  mutable conflicts : int;
  mutable churn_replies : int;
  mutable feasible : int;
  mutable arrivals : int;
  mutable cross : int;
  mutable solves : int;
  mutable checks : (P.request * Json.t) list;  (** every 50th static solve *)
  mutable sent : sent list;  (** newest first, at most [keep] *)
  mutable n_sent : int;
  mutable spans : span list;
  mutable transport_error : string option;
}

type phase = { logs : log array; seconds : float }

let new_log () =
  {
    lat_ms = Pct.Buf.create ();
    ok = 0;
    failed = 0;
    conflicts = 0;
    churn_replies = 0;
    feasible = 0;
    arrivals = 0;
    cross = 0;
    solves = 0;
    checks = [];
    sent = [];
    n_sent = 0;
    spans = [];
    transport_error = None;
  }

let op_name = function
  | P.Ping -> "ping"
  | P.Sleep _ -> "sleep"
  | P.Solve _ -> "solve"
  | P.Arrive _ -> "arrive"
  | P.Depart _ -> "depart"
  | P.Rebalance _ -> "rebalance"
  | P.Stats -> "stats"
  | P.Health -> "health"
  | P.Shutdown -> "shutdown"

let is_true name j = Json.member name j = Some (Json.Bool true)

let note_reply log req j =
  if is_true "ok" j then begin
    log.ok <- log.ok + 1;
    match req with
    | P.Arrive _ | P.Depart _ | P.Rebalance _ ->
      log.churn_replies <- log.churn_replies + 1;
      if is_true "feasible" j then log.feasible <- log.feasible + 1;
      (match req with
      | P.Arrive _ ->
        log.arrivals <- log.arrivals + 1;
        if is_true "cross" j then log.cross <- log.cross + 1
      | _ -> ())
    | P.Solve { target = P.Static; _ } ->
      log.solves <- log.solves + 1;
      if log.solves mod 50 = 0 then log.checks <- (req, j) :: log.checks
    | _ -> ()
  end
  else begin
    log.failed <- log.failed + 1;
    if Json.member "code" j = Some (Json.String "conflict") then
      log.conflicts <- log.conflicts + 1
  end

let client_loop w conn (c : Workload.client) log ~deadline ~keep ~trace =
  while log.transport_error = None && Clock.now_ns () < deadline do
    let req = Workload.next w c in
    let t0 = Clock.now_ns () in
    let resp = Client.rpc conn req in
    let t1 = Clock.now_ns () in
    (match resp with
    | Ok j ->
      note_reply log req j;
      Pct.Buf.add log.lat_ms
        (if is_true "ok" j then Int64.to_float (Int64.sub t1 t0) /. 1e6 else infinity)
    | Error msg ->
      log.failed <- log.failed + 1;
      log.transport_error <- Some msg;
      Pct.Buf.add log.lat_ms infinity);
    if log.n_sent < keep then begin
      log.sent <- { req; done_ns = t1 } :: log.sent;
      log.n_sent <- log.n_sent + 1
    end;
    if trace then
      log.spans <-
        {
          sname = op_name req;
          sid = Printf.sprintf "c%d-%d" c.Workload.cid c.Workload.issued;
          start_ns = t0;
          end_ns = t1;
        }
        :: log.spans
  done

(* Run every client for [seconds], cut into [segments] equal parts;
   requests in flight at a part's end complete and count.  [between]
   runs before the first part, between parts and after the last, with
   every client idle.  [keep] caps the ops each client remembers for
   the replays.  The phase's [seconds] counts the parts only. *)
let run ?(segments = 1) ?(between = ignore) w conns clients ~seconds ~keep ~trace =
  let logs = Array.map (fun _ -> new_log ()) clients in
  let part = seconds /. float_of_int segments in
  let busy = ref 0.0 in
  for _ = 1 to segments do
    between ();
    let t0 = Clock.now_ns () in
    let deadline = Int64.add t0 (Int64.of_float (part *. 1e9)) in
    Array.mapi
      (fun i c -> Thread.create (fun () -> client_loop w conns.(i) c logs.(i) ~deadline ~keep ~trace) ())
      clients
    |> Array.iter Thread.join;
    busy := !busy +. (Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9)
  done;
  between ();
  { logs; seconds = !busy }

let sum phase f = Array.fold_left (fun acc l -> acc + f l) 0 phase.logs

(* Every latency of a phase, failed requests as [infinity]. *)
let latencies phase = Array.concat (Array.to_list (Array.map (fun l -> Pct.Buf.to_array l.lat_ms) phase.logs))

(* The ops of a phase merged across clients in completion order. *)
let sent_in_order phase =
  Array.to_list phase.logs
  |> List.concat_map (fun l -> List.rev l.sent)
  |> List.stable_sort (fun a b -> Int64.compare a.done_ns b.done_ns)
  |> List.map (fun s -> s.req)
