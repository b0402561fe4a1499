(* One workload run: set up a [tdmd serve] process (several times, for
   [setup_s]), warm up, run the timed window (and with [trace] a second,
   traced window plus the replays), check every answer, and report.
   Every timing is scaled to the host's nominal speed ([Host]). *)

module P = Tdmd_server.Protocol
module E = Tdmd_server.Engine
module S = Tdmd_server.Session
module Client = Tdmd_server.Client
module Json = Tdmd_obs.Json
module Clock = Tdmd_obs.Clock

type opts = {
  seed : int;
  seconds : float;  (** measured time: the timed window, or both windows of a traced run *)
  trace : bool;
  quick : bool;
  out : string;  (** result records *)
}

let exe = "_build/default/bin/tdmd_cli.exe"
let scratch = "bench/perf/out"
let warmup_s o = if o.quick then 0.5 else 2.0

(* The timed window runs in parts of about this length, with a host
   probe before, between and after them. *)
let part_s = 2.0
let replay_ops o = if o.quick then 500 else 2000

(* ------------------------------------------------------------------ *)
(* Server set-up                                                       *)
(* ------------------------------------------------------------------ *)

type env = {
  w : Workload.t;
  o : opts;
  work : string;
  sock : string;
  instance_file : string option;
  setup_ops : P.request list;
}

let addr env = P.Unix_sock env.sock

let spawn env ~journal ~snapshot_every =
  let args =
    [ "serve"; "--listen"; "unix:" ^ env.sock; "--domains"; "2" ]
    @ env.w.Workload.serve_args
    @ (match env.instance_file with Some f -> [ "--instance"; f ] | None -> [])
    @
    match journal with
    | Some dir ->
      [ "--journal"; dir; "--fsync"; "always"; "--snapshot-every"; string_of_int snapshot_every ]
    | None -> []
  in
  Proc.spawn ~exe ~args ~log:(Filename.concat env.work "server.log")

let ok_reply = function
  | Ok j -> Json.member "ok" j = Some (Json.Bool true)
  | Error _ -> false

type served = { proc : Proc.t; journal : string option; setup_s : float; recover_s : float }

let restart env ~journal =
  let t0 = Clock.now_ns () in
  let p = spawn env ~journal ~snapshot_every:2048 in
  (p, Proc.wait_ready p (addr env) ~t0 ~timeout_s:120.0)

(* Bring a server to the window's starting state.  Churn workloads send
   the fixed set-up history over one connection with snapshots off (so
   the journal holds all of it), kill -9 the server and restart it on
   the crashed directory: the timed window runs against a recovered
   server. *)
let setup_once env ~rep =
  let journal =
    if env.w.Workload.durable then
      Some (Fsutil.fresh_dir (Filename.concat env.work (Printf.sprintf "journal-%d" rep)))
    else None
  in
  let t0 = Clock.now_ns () in
  let p = spawn env ~journal ~snapshot_every:0 in
  let ready = Proc.wait_ready p (addr env) ~t0 ~timeout_s:60.0 in
  if env.setup_ops = [] then { proc = p; journal; setup_s = ready; recover_s = ready }
  else begin
    let c = Client.connect (addr env) in
    List.iter
      (fun op ->
        match Client.rpc c op with
        | r when ok_reply r -> ()
        | Ok j -> failwith ("set-up op refused: " ^ Json.to_string j)
        | Error msg -> failwith ("set-up op failed: " ^ msg))
      env.setup_ops;
    Client.close c;
    Proc.kill9 p;
    let p, recover_s = restart env ~journal in
    { proc = p; journal; setup_s = Proc.seconds_since t0; recover_s }
  end

(* A traced run is for the per-layer numbers: setting it up once, with
   no late restart samples, keeps its replays short. *)
let setups env = if env.o.quick || env.o.trace then 1 else env.w.Workload.setups

(* All set-ups, each between two host probes; every server but the
   last is killed.  Set-up 0's crashed directory is kept for
   [late_restarts]. *)
let setup env =
  let n = setups env in
  let rec go i acc =
    let s, probe = Host.around (fun () -> setup_once env ~rep:i) in
    let s = { s with setup_s = Host.at_nominal ~probe s.setup_s; recover_s = Host.at_nominal ~probe s.recover_s } in
    if i = n - 1 then (s, List.rev (s :: acc))
    else begin
      Proc.kill9 s.proc;
      if i > 0 then Option.iter Fsutil.rm_rf s.journal;
      go (i + 1) (s :: acc)
    end
  in
  go 0 []

(* More [recover_s] samples, after the window, each between two host
   probes: restarts of set-up 0's crashed directory, or cold starts.  A
   restart that serves no op leaves the directory as it found it, so
   each times the same recovery. *)
let late_restarts env reps =
  let journal = (List.hd reps).journal in
  let n = if setups env < 2 then 0 else env.w.Workload.late_restarts in
  List.init n (fun _ ->
      let (p, r), probe = Host.around (fun () -> restart env ~journal) in
      Proc.kill9 p;
      Host.at_nominal ~probe r)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats c =
  match Client.rpc c P.Stats with
  | Ok j when Json.member "ok" j = Some (Json.Bool true) -> j
  | Ok j -> failwith ("stats refused: " ^ Json.to_string j)
  | Error msg -> failwith ("stats: " ^ msg)

let path j keys = List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) keys
let num j keys = Option.value (Option.bind (path j keys) Json.to_float) ~default:0.0

let shard_list j =
  match Json.member "shards" j with Some (Json.List l) -> l | _ -> []

let shard_sum j key = List.fold_left (fun s sh -> s +. num sh [ key ]) 0.0 (shard_list j)
let shard_max j key = List.fold_left (fun s sh -> Float.max s (num sh [ key ])) 0.0 (shard_list j)
let ratio a b = if Float.equal b 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

(* Every 50th static solve reply against a direct registry call. *)
let check_solves env report (phase : Load.phase) =
  Array.iter
    (fun (log : Load.log) ->
      List.iter
        (fun (req, j) ->
          match req with
          | P.Solve { algo; k; seed; target = P.Static } ->
            let o = Replay.registry_solve env.w ~algo ~k ~seed ~live:None in
            if not (Replay.same_answer o j) then
              Report.error report
                (Printf.sprintf "served %s k=%d seed=%d differs from the registry" algo k seed)
          | _ -> ())
        log.Load.checks)
    phase.Load.logs

let sorted_ids flows = List.sort compare (List.map (fun (f : Tdmd_flow.Flow.t) -> f.Tdmd_flow.Flow.id) flows)

(* After kill -9: recover the directory in process.  Every acked flow
   must be there and nothing else; each shard's bandwidth must equal
   [Bandwidth.total] of its recovered flows and placement; the total
   must equal what the server last reported; and a live solve the
   server answered just before the kill must match the registry on the
   recovered flows. *)
let check_recovery env report ~journal ~clients ~last_stats ~live_solve =
  match E.recover (S.durability ~fsync:Tdmd_server.Journal.Always journal) with
  | Error msg -> Report.error report ("in-process recovery failed: " ^ msg)
  | Ok e ->
    Fun.protect
      ~finally:(fun () -> E.close e)
      (fun () ->
        let sessions = List.init (E.shard_count e) (fun i -> Tdmd_server.Shard.session (E.shard e i)) in
        let recovered = sorted_ids (List.concat_map S.live_flows sessions) in
        let acked = List.sort compare (List.concat_map Workload.live_ids (Array.to_list clients)) in
        if recovered <> acked then
          Report.error report
            (Printf.sprintf "recovered %d live flows, the acked model has %d (or different ids)"
               (List.length recovered) (List.length acked));
        let g = env.w.Workload.instance in
        let total =
          List.fold_left
            (fun total s ->
              let sum = S.churn_summary s in
              let inst =
                Tdmd.Instance.make ~graph:g.Tdmd.Instance.graph ~flows:(S.live_flows s)
                  ~lambda:g.Tdmd.Instance.lambda
              in
              let expect = Tdmd.Bandwidth.total inst sum.S.placement in
              if not (Float.equal expect sum.S.bandwidth) then
                Report.error report
                  (Printf.sprintf "recovered bandwidth %.17g, Bandwidth.total says %.17g"
                     sum.S.bandwidth expect);
              total +. sum.S.bandwidth)
            0.0 sessions
        in
        (match path last_stats [ "churn"; "bandwidth" ] with
        | Some (Json.Float b) when Float.equal b total -> ()
        | _ -> Report.error report "recovered bandwidth differs from the server's last stats");
        match live_solve with
        | P.Solve { algo; k; seed; _ }, reply ->
          let o = Replay.registry_solve env.w ~algo ~k ~seed ~live:(Some (Replay.live_instance env.w e)) in
          if not (Replay.same_answer o reply) then
            Report.error report "live solve before the crash differs from the registry on the recovered flows"
        | _ -> ())

(* ------------------------------------------------------------------ *)
(* Trace file                                                          *)
(* ------------------------------------------------------------------ *)

(* Spans of the traced window (one per RPC) and of the replays (one per
   layer call, parented by the replayed op), written at exit.  Returns
   how many replayed ops have children covering more than the op
   itself: a negative self time. *)
let write_trace env (traced : Load.phase) (replay : Replay.result) =
  let file = Filename.concat scratch (env.w.Workload.name ^ ".trace.json") in
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let first = ref true in
      let emit ~name ~id ~parent ~t0 ~t1 =
        if not !first then output_string oc ",\n";
        first := false;
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("name", Json.String name);
                  ("id", Json.String id);
                  ("parent", match parent with Some p -> Json.String p | None -> Json.Null);
                  ("start_ns", Json.Int (Int64.to_int t0));
                  ("end_ns", Json.Int (Int64.to_int t1));
                ]))
      in
      Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"spans\": [\n" env.w.Workload.name env.o.seed;
      Array.iter
        (fun (log : Load.log) ->
          List.iter
            (fun (s : Load.span) ->
              emit ~name:s.Load.sname ~id:s.Load.sid ~parent:None ~t0:s.Load.start_ns ~t1:s.Load.end_ns)
            (List.rev log.Load.spans))
        traced.Load.logs;
      List.iter
        (fun (s : Replay.span) -> emit ~name:s.Replay.name ~id:s.Replay.id ~parent:s.Replay.parent ~t0:s.Replay.t0 ~t1:s.Replay.t1)
        replay.Replay.spans;
      output_string oc "\n]}\n");
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Replay.span) ->
      Option.iter
        (fun p ->
          let d = Int64.sub s.Replay.t1 s.Replay.t0 in
          Hashtbl.replace children p (Int64.add d (Option.value (Hashtbl.find_opt children p) ~default:0L)))
        s.Replay.parent)
    replay.Replay.spans;
  List.filter
    (fun (s : Replay.span) ->
      s.Replay.parent = None
      && Int64.compare (Int64.sub s.Replay.t1 s.Replay.t0)
           (Option.value (Hashtbl.find_opt children s.Replay.id) ~default:0L)
         < 0)
    replay.Replay.spans
  |> List.length

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let take n l = List.filteri (fun i _ -> i < n) l

(* A timed window in parts, and the host probes taken around them. *)
let window o w conns clients ~seconds ~keep ~trace =
  let probes = ref [] in
  let segments = if o.quick then 1 else max 1 (Float.to_int (Float.round (seconds /. part_s))) in
  let phase =
    Load.run ~segments ~between:(fun () -> probes := Host.probe () :: !probes) w conns clients ~seconds ~keep ~trace
  in
  (phase, !probes)

let run o (w : Workload.t) =
  (* A traced run splits its time between the untraced and the traced
     window, so it takes no longer than an untraced one. *)
  let window_s = if o.trace then o.seconds /. 2.0 else o.seconds in
  let report =
    Report.create ~workload:w.Workload.name ~seed:o.seed ~quick:o.quick ~trace:o.trace ~window_s
  in
  let work = Fsutil.fresh_dir (Filename.concat scratch w.Workload.name) in
  let instance_file =
    if w.Workload.inline then begin
      let f = Filename.concat work "instance.json" in
      Fsutil.write_file f (Json.to_string (P.instance_to_json w.Workload.instance));
      Some f
    end
    else None
  in
  let setup_ops, clients = Workload.setup w ~seed:o.seed in
  let env = { w; o; work; sock = Filename.concat work "s.sock"; instance_file; setup_ops } in
  let served, reps = setup env in
  let conns = Array.map (fun _ -> Client.connect (addr env)) clients in
  let control = Client.connect (addr env) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Client.close conns;
      Client.close control;
      Proc.kill9 served.proc)
    (fun () ->
      let warm = Load.run w conns clients ~seconds:(warmup_s o) ~keep:max_int ~trace:false in
      let s0 = stats control in
      let win, probes = window o w conns clients ~seconds:window_s ~keep:(replay_ops o) ~trace:false in
      let probe = Pct.median probes in
      let s1 = stats control in
      let rss = Proc.peak_rss_mb served.proc in
      let traced =
        if o.trace then Some (window o w conns clients ~seconds:window_s ~keep:0 ~trace:true) else None
      in
      let phases = win :: Option.to_list (Option.map fst traced) in
      report.Report.attempted <- List.fold_left (fun s p -> s + Load.sum p (fun l -> l.Load.lat_ms.Pct.Buf.len)) 0 phases;
      report.Report.failed <- List.fold_left (fun s p -> s + Load.sum p (fun l -> l.Load.failed)) 0 phases;
      List.iter
        (fun p ->
          Array.iter
            (fun (l : Load.log) ->
              Option.iter (fun m -> Report.error report ("transport error: " ^ m)) l.Load.transport_error)
            p.Load.logs)
        (warm :: phases);
      if report.Report.failed > 0 then
        Report.error report (Printf.sprintf "%d requests failed" report.Report.failed);
      let conflicts = List.fold_left (fun s p -> s + Load.sum p (fun l -> l.Load.conflicts)) 0 (warm :: phases) in
      if conflicts > 0 then Report.error report (Printf.sprintf "%d conflict replies" conflicts);
      if report.Report.attempted = 0 then Report.error report "no request completed";
      (* End to end, from the untraced window, at nominal host speed. *)
      let thr phase probe =
        Host.rate_at_nominal ~probe (float_of_int (Load.sum phase (fun l -> l.Load.ok)) /. phase.Load.seconds)
      in
      Report.add report ~samples:(Load.sum win (fun l -> l.Load.ok)) "throughput_ops_s" (thr win probe);
      let lat = Load.latencies win in
      List.iter
        (fun (name, num) ->
          let p = Pct.percentile lat ~num ~den:100 in
          if (not o.quick) && not (Pct.supported p) then
            Report.warn report (Printf.sprintf "%s: only %d samples beyond it" name p.Pct.beyond);
          Report.add report ~samples:p.Pct.samples name (Host.at_nominal ~probe p.Pct.value))
        [ ("p50_ms", 50); ("p99_ms", 99) ];
      Report.add report ~samples:(List.length reps) "setup_s" (Pct.median (List.map (fun s -> s.setup_s) reps));
      Report.add report "server_rss_mb" rss;
      List.iter (check_solves env report) phases;
      (* A quiesced live solve, then the crash and recovery check. *)
      (match (w.Workload.durable, served.journal) with
      | true, Some journal ->
        let live_req = P.Solve { algo = "gtp"; k = 8; seed = o.seed; target = P.Live } in
        let live_reply = match Client.rpc control live_req with Ok j -> j | Error m -> failwith m in
        if Json.member "ok" live_reply <> Some (Json.Bool true) then
          Report.error report ("live solve refused: " ^ Json.to_string live_reply);
        let last = stats control in
        Proc.kill9 served.proc;
        check_recovery env report ~journal ~clients ~last_stats:last ~live_solve:(live_req, live_reply)
      | _ -> Proc.kill9 served.proc);
      let recovers = List.map (fun s -> s.recover_s) reps @ late_restarts env reps in
      let recover_s = Pct.median recovers in
      Report.add report ~samples:(List.length recovers) "recover_s" recover_s;
      if o.trace then begin
        let sum f = float_of_int (Load.sum win f) in
        let churn_ops = sum (fun l -> l.Load.churn_replies) in
        let d keys = num s1 keys -. num s0 keys in
        (* The flat 1-shard layout (solve-large) lists no shards: these
           read 0 there. *)
        let dshard key = shard_sum s1 key -. shard_sum s0 key in
        let layer =
          [
            ("server.p50_ms", num s1 [ "latency_p50_ms" ]);
            ("server.p99_ms", num s1 [ "latency_p99_ms" ]);
            ("journal.fsyncs_per_op", ratio (dshard "batches") (dshard "batched_ops"));
            ( "journal.replay_us_per_op",
              if w.Workload.durable then ratio (recover_s *. 1e6) (float_of_int (List.length setup_ops))
              else 0.0 );
            ("shard.batch_avg", ratio (dshard "batched_ops") (dshard "batches"));
            ("shard.queue_peak", shard_max s1 "queue_peak");
            ( "shard.imbalance",
              ratio (shard_max s1 "flows") (shard_sum s1 "flows" /. float_of_int w.Workload.shards) );
            ("engine.cross_share", ratio (sum (fun l -> l.Load.cross)) (sum (fun l -> l.Load.arrivals)));
            ("incremental.feasible_share", ratio (sum (fun l -> l.Load.feasible)) churn_ops);
            ("incremental.moves_per_op", ratio (d [ "churn"; "moves" ]) churn_ops);
          ]
        in
        List.iter (fun (name, v) -> Report.add report name v) layer;
        Report.add report ~samples:(List.length probes) "host.kernel_ms" (probe *. 1e3);
        let traced, traced_probes = Option.get traced in
        let traced_probe = Pct.median traced_probes in
        Report.add report
          ~samples:(Load.sum traced (fun l -> l.Load.ok))
          "trace.overhead_share"
          ((thr win probe -. thr traced traced_probe) /. thr win probe);
        let window = take (replay_ops o) (Load.sent_in_order win) in
        let replay =
          Replay.run w ~work ~sock:(Filename.concat work "t.sock") ~setup:setup_ops
            ~warmup:(Load.sent_in_order warm) ~window
        in
        List.iter (Report.error report) replay.Replay.errors;
        List.iter
          (fun (name, v) -> Report.add report ~samples:(List.length window) name v)
          replay.Replay.metrics;
        let bad = write_trace env traced replay in
        if bad > 0 then Report.error report (Printf.sprintf "%d replayed ops with negative self time" bad)
      end;
      Report.check_complete report;
      report)
