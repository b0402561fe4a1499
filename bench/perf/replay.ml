(* Per-layer numbers from in-process replays.  Fresh twins of the
   server's engine are populated with the history the server saw
   (set-up, then warm-up), then the first ops of the timed window are
   replayed into them single-threaded, op by op in lockstep, timing
   each call into a layer's public function.  Lockstep keeps machine
   drift from landing on one twin only, which the derived self times
   (durable minus in-memory twin; round trip minus engine and codec)
   depend on. *)

module E = Tdmd_server.Engine
module S = Tdmd_server.Session
module P = Tdmd_server.Protocol
module J = Tdmd_server.Journal
module R = Tdmd_server.Router
module Inc = Tdmd.Incremental
module Json = Tdmd_obs.Json
module Clock = Tdmd_obs.Clock

type span = { name : string; id : string; parent : string option; t0 : int64; t1 : int64 }

type result = {
  metrics : (string * float) list;
  spans : span list;
  errors : string list;
}

(* ------------------------------------------------------------------ *)
(* Twins                                                               *)
(* ------------------------------------------------------------------ *)

let engine (w : Workload.t) ~dir =
  let config =
    {
      S.Config.default with
      S.Config.churn_k = w.Workload.churn_k;
      migration_budget = w.Workload.migration_budget;
      durability =
        Option.map (fun d -> S.durability ~fsync:J.Always ~snapshot_every:2048 d) dir;
    }
  in
  E.create ~config ~shards:w.Workload.shards (E.General w.Workload.instance)

(* What the server's [execute] does with a request, minus the socket. *)
let apply e = function
  | P.Solve { algo; k; seed; target } -> E.solve e ~algo ~k ~seed ~target
  | P.Arrive { id; rate; path } -> E.arrive e ~id ~rate ~path ()
  | P.Depart id -> E.depart e id
  | P.Rebalance { budget } -> E.rebalance e ?budget ()
  | P.Stats -> Ok (Json.Obj (("churn", Json.Obj (E.churn_stats e)) :: E.stats_fields e))
  | (P.Ping | P.Sleep _ | P.Health | P.Shutdown) as r ->
    Error ("bad-request", "replay: unexpected " ^ Load.op_name r)

let mutates = function P.Arrive _ | P.Depart _ | P.Rebalance _ -> true | _ -> false

let populate e ops =
  List.iter
    (fun op ->
      if mutates op then
        match apply e op with
        | Ok _ -> ()
        | Error (code, msg) ->
          failwith (Printf.sprintf "replay: populating a twin: %s: %s" code msg))
    ops

(* The churn engines alone, one per shard, fed exactly what the engine
   routes to each. *)
type inc = { router : R.t; incs : Inc.t array }

let inc_twin (w : Workload.t) =
  let g = w.Workload.instance in
  let graph = g.Tdmd.Instance.graph in
  {
    router = R.create (Tdmd_topo.Partition.make graph ~shards:w.Workload.shards);
    incs =
      Array.init w.Workload.shards (fun _ ->
          Inc.create ~migration_budget:w.Workload.migration_budget ~graph
            ~lambda:g.Tdmd.Instance.lambda ~k:w.Workload.churn_k ());
  }

let home = function R.Local s -> s | R.Cross { home; _ } -> home

(* The shard an op lands on (every shard for a rebalance), before it is
   applied: a depart's route is forgotten once it is. *)
let inc_shards d = function
  | P.Arrive { path; _ } -> [ home (R.route_arrive d.router ~path) ]
  | P.Depart id -> [ R.route_depart d.router ~flow_id:id () ]
  | _ -> List.init (Array.length d.incs) Fun.id

let inc_apply d op shards =
  match (op, shards) with
  | P.Arrive { id; rate; path }, [ s ] ->
    Inc.arrive d.incs.(s) (Tdmd_flow.Flow.make ~id ~rate ~path);
    R.assign d.router ~flow_id:id ~shard:s
  | P.Depart id, [ s ] ->
    Inc.depart d.incs.(s) id;
    R.release d.router ~flow_id:id
  | P.Rebalance { budget }, _ -> List.iter (fun s -> ignore (Inc.rebalance ?budget d.incs.(s))) shards
  | _ -> ()

(* The live union a sharded live solve runs on, in shard-major order. *)
let live_instance w e =
  let g = w.Workload.instance in
  let flows =
    List.concat_map
      (fun i -> S.live_flows (Tdmd_server.Shard.session (E.shard e i)))
      (List.init (E.shard_count e) Fun.id)
  in
  Tdmd.Instance.make ~graph:g.Tdmd.Instance.graph ~flows ~lambda:g.Tdmd.Instance.lambda

(* A direct registry call, dispatched the way [Session.solve] does. *)
let registry_solve (w : Workload.t) ~algo ~k ~seed ~live =
  match Tdmd.Solvers.find_general algo with
  | Some f -> f ~rng:(Tdmd_prelude.Rng.create seed) ~k (Option.value live ~default:w.Workload.instance)
  | None -> failwith ("unknown solver " ^ algo)

let ints = function
  | Some (Json.List l) -> List.filter_map (function Json.Int i -> Some i | _ -> None) l
  | _ -> []

(* Bit-identical: the same placement and the same bandwidth double. *)
let same_answer (o : Tdmd.Solver_intf.outcome) j =
  ints (Json.member "placement" j) = Tdmd.Placement.to_list o.Tdmd.Solver_intf.placement
  &&
  match Json.member "bandwidth" j with
  | Some (Json.Float b) -> Int64.equal (Int64.bits_of_float b) (Int64.bits_of_float o.Tdmd.Solver_intf.bandwidth)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Words one [alloc_words] reading allocates itself. *)
let alloc_overhead =
  lazy
    (let a0 = alloc_words () in
     let a1 = alloc_words () in
     a1 -. a0)

type acc = {
  tbl : (string, float) Hashtbl.t;  (* ns, words or bytes, summed *)
  mutable spans : span list;
  mutable n_spans : int;
  mutable last_ns : float;  (* duration of the latest [timed] call *)
}

let add acc name x =
  Hashtbl.replace acc.tbl name (x +. Option.value (Hashtbl.find_opt acc.tbl name) ~default:0.0)

let get acc name = Option.value (Hashtbl.find_opt acc.tbl name) ~default:0.0

let span acc ~parent name t0 t1 =
  acc.n_spans <- acc.n_spans + 1;
  acc.spans <-
    { name; id = Printf.sprintf "s%d" acc.n_spans; parent; t0; t1 } :: acc.spans

(* Run [f]; add its duration (ns) to [name], and its allocation to
   [words] when given; record a span under [parent]. *)
let timed acc ~parent ?words name f =
  let a0 = alloc_words () in
  let t0 = Clock.now_ns () in
  let r = f () in
  let t1 = Clock.now_ns () in
  let a1 = alloc_words () in
  acc.last_ns <- Int64.to_float (Int64.sub t1 t0);
  add acc name acc.last_ns;
  Option.iter (fun w -> add acc w (a1 -. a0 -. Lazy.force alloc_overhead)) words;
  span acc ~parent:(Some parent) name t0 t1;
  r

(* ------------------------------------------------------------------ *)
(* Reference calls: exact work counters and oracle timings             *)
(* ------------------------------------------------------------------ *)

(* Each of the workload's solvers once, at its reference budget, on the
   reference instance — the static one, or the live population the
   fixed set-up history leaves — so the counts repeat exactly on every
   run of a commit, whatever the seed. *)
let reference_counts (w : Workload.t) ~live =
  List.fold_left
    (fun (calls, evals) algo ->
      let o = registry_solve w ~algo ~k:w.Workload.ref_k ~seed:0 ~live in
      let tel = o.Tdmd.Solver_intf.telemetry in
      ( calls + Tdmd_obs.Telemetry.get_count tel "oracle_calls",
        evals + Tdmd_obs.Telemetry.get_count tel "delta_evals" ))
    (0, 0) w.Workload.algos

let elapsed_ns t0 = Int64.to_float (Int64.sub (Clock.now_ns ()) t0)

(* Median [Inc_oracle.create] time (µs) and the mean cost (ns) of one
   [marginal_volume] call over repeated sweeps of every vertex. *)
let oracle_timings inst =
  let creates =
    List.init 15 (fun _ ->
        let t0 = Clock.now_ns () in
        ignore (Sys.opaque_identity (Tdmd.Inc_oracle.create inst));
        elapsed_ns t0 /. 1e3)
  in
  let o = Tdmd.Inc_oracle.create inst in
  let n = Tdmd.Instance.vertex_count inst in
  let calls = ref 0 in
  let t0 = Clock.now_ns () in
  while elapsed_ns t0 < 2e7 do
    for v = 0 to n - 1 do
      ignore (Sys.opaque_identity (Tdmd.Inc_oracle.marginal_volume o v))
    done;
    calls := !calls + n
  done;
  (Pct.median creates, elapsed_ns t0 /. float_of_int !calls)

(* ------------------------------------------------------------------ *)
(* The replay                                                          *)
(* ------------------------------------------------------------------ *)

let journal_op (w : Workload.t) = function
  | P.Arrive { id; rate; path } -> Some (J.Arrive { id; rate; path; req = None })
  | P.Depart id -> Some (J.Depart { flow_id = id; req = None })
  | P.Rebalance { budget } ->
    Some (J.Rebalance { budget = Option.value budget ~default:w.Workload.migration_budget; req = None })
  | _ -> None

let wal_counts e =
  List.fold_left
    (fun (bytes, appends) i ->
      let tel = S.durability_telemetry (Tdmd_server.Shard.session (E.shard e i)) in
      ( bytes + Tdmd_obs.Telemetry.get_count tel "wal_bytes",
        appends + Tdmd_obs.Telemetry.get_count tel "wal_appends" ))
    (0, 0)
    (List.init (E.shard_count e) Fun.id)

(* The no-work request [transport] probes with: [sleep 0] takes the
   reader thread, pool hand-off, worker and reply write like any
   compute op, and nothing else. *)
let probe = P.Sleep 0
let probe_reply = P.ok [ ("op", Json.String "sleep"); ("ms", Json.Int 0) ]

(* One window op through every twin.  Twin A is the server's own
   configuration, timed per engine call; B is the same engine without a
   journal (durable workloads only); D is the bare churn engines plus
   router.  Each op is followed by one [probe] round trip to an
   in-process server over a Unix socket: timing the real op over the
   socket instead would charge transport with the engine running slower
   on a worker domain than on the replay's own, which on ms-long ops
   swamps the tens of us of transport. *)
let step (w : Workload.t) acc ~error ~a ~b ~client ~d ~standalone i op =
  let parent = Printf.sprintf "w%d" i in
  let t_start = Clock.now_ns () in
  let name = Load.op_name op in
  let req_text =
    timed acc ~parent ~words:"protocol.words" "protocol.encode" (fun () ->
        Json.to_string (P.request_to_json op))
  in
  timed acc ~parent ~words:"protocol.words" "protocol.decode" (fun () ->
      match Result.bind (Json.of_string req_text) P.request_of_json with
      | Ok _ -> ()
      | Error msg -> error (Printf.sprintf "request does not decode: %s" msg));
  let reply = timed acc ~parent ~words:"engine.words" ("engine." ^ name) (fun () -> apply a op) in
  let durable_ns = acc.last_ns in
  let reply_json =
    match reply with
    | Ok (Json.Obj fields) -> P.ok fields
    | Ok other -> P.ok [ ("result", other) ]
    | Error (code, msg) ->
      error (Printf.sprintf "twin answered %s with %s: %s" name code msg);
      P.error ~code msg
  in
  let reply_text =
    timed acc ~parent ~words:"protocol.words" "protocol.encode" (fun () ->
        Json.to_string reply_json)
  in
  timed acc ~parent ~words:"protocol.words" "protocol.decode" (fun () ->
      ignore (Json.of_string reply_text));
  add acc "protocol.bytes" (float_of_int (String.length req_text + String.length reply_text + 8));
  Option.iter
    (fun b ->
      if mutates op then begin
        ignore (timed acc ~parent "journal.memory" (fun () -> apply b op));
        add acc "journal.durable" durable_ns
      end)
    b;
  (match timed acc ~parent "transport.rtt" (fun () -> Tdmd_server.Client.rpc client probe) with
  | Ok j when Json.member "ok" j = Some (Json.Bool true) -> ()
  | Ok j -> error ("transport probe refused: " ^ Json.to_string j)
  | Error msg -> error ("transport probe: " ^ msg));
  timed acc ~parent "transport.codec" (fun () ->
      ignore (P.request_of_json (Result.get_ok (Json.of_string (Json.to_string (P.request_to_json probe)))));
      ignore (Json.of_string (Json.to_string probe_reply)));
  if mutates op then begin
    let shards =
      match op with
      | P.Arrive _ -> timed acc ~parent "router.route" (fun () -> inc_shards d op)
      | _ -> inc_shards d op
    in
    timed acc ~parent ~words:"incremental.words" ("incremental." ^ name) (fun () ->
        inc_apply d op shards);
    List.iter
      (fun s ->
        ignore
          (timed acc ~parent ~words:"incremental.words" "incremental.bandwidth" (fun () ->
               Inc.bandwidth d.incs.(s))))
      shards
  end;
  (match (standalone, journal_op w op) with
  | Some j, Some jop -> timed acc ~parent "journal.append" (fun () -> J.append j jop)
  | _ -> ());
  (match op with
  | P.Solve { algo; k; seed; target } ->
    let live = match target with P.Live -> Some (live_instance w a) | P.Static -> None in
    let o = timed acc ~parent ("solvers." ^ algo) (fun () -> registry_solve w ~algo ~k ~seed ~live) in
    (match reply with
    | Ok j when same_answer o j -> ()
    | _ -> error (Printf.sprintf "%s k=%d seed=%d: engine answer differs from the registry" algo k seed))
  | _ -> ());
  acc.spans <- { name = "replay." ^ name; id = parent; parent = None; t0 = t_start; t1 = Clock.now_ns () } :: acc.spans

(* Replay [window] after [setup] and [warmup] (send order).  [work] is a
   scratch directory; the in-process server listens on [sock]. *)
let run (w : Workload.t) ~work ~sock ~setup ~warmup ~window =
  let dir name = if w.Workload.durable then Some (Fsutil.fresh_dir (Filename.concat work name)) else None in
  let a = engine w ~dir:(dir "twin-a") in
  let b = if w.Workload.durable then Some (engine w ~dir:None) else None in
  let d = inc_twin w in
  let errors = ref [] in
  let error s = errors := s :: !errors in
  Fun.protect
    ~finally:(fun () -> List.iter E.close (a :: Option.to_list b))
    (fun () ->
      let twins = a :: Option.to_list b in
      let feed ops =
        List.iter (fun e -> populate e ops) twins;
        List.iter (fun op -> if mutates op then inc_apply d op (inc_shards d op)) ops
      in
      feed setup;
      let live = match w.Workload.mix with Workload.Solves _ -> None | Workload.Churn _ -> Some (live_instance w a) in
      let oracle_calls, delta_evals = reference_counts w ~live in
      let create_us, marginal_ns = oracle_timings (Option.value live ~default:w.Workload.instance) in
      feed warmup;
      let bytes0, appends0 = wal_counts a in
      let standalone =
        if w.Workload.durable then
          let dir = Fsutil.fresh_dir (Filename.concat work "standalone") in
          Some (fst (J.open_append ~fsync:J.Always (Filename.concat dir "journal.wal")))
        else None
      in
      let probe_engine = engine w ~dir:None in
      let server =
        Tdmd_server.Server.start
          { (Tdmd_server.Server.default_config (P.Unix_sock sock)) with Tdmd_server.Server.domains = 2 }
          probe_engine
      in
      let client = Tdmd_server.Client.connect (P.Unix_sock sock) in
      let acc = { tbl = Hashtbl.create 64; spans = []; n_spans = 0; last_ns = 0.0 } in
      Fun.protect
        ~finally:(fun () ->
          Tdmd_server.Client.close client;
          Tdmd_server.Server.request_stop server;
          Tdmd_server.Server.wait server;
          E.close probe_engine;
          Option.iter J.close standalone)
        (fun () -> List.iteri (step w acc ~error ~a ~b ~client ~d ~standalone) window);
      let n = float_of_int (max 1 (List.length window)) in
      let per_op name = get acc name /. n in
      let us name = per_op name /. 1e3 in
      let transport = us "transport.rtt" -. us "transport.codec" in
      let journal_self = us "journal.durable" -. us "journal.memory" in
      if transport < 0.0 then error (Printf.sprintf "negative self time: server.transport_us = %.3f" transport);
      if journal_self < 0.0 then error (Printf.sprintf "negative self time: journal.self_us = %.3f" journal_self);
      let bytes1, appends1 = wal_counts a in
      let appends = appends1 - appends0 in
      let metrics =
        [
          ("server.transport_us", transport);
          ( "journal.bytes_per_op",
            if appends = 0 then 0.0 else float_of_int (bytes1 - bytes0) /. float_of_int appends );
          ("protocol.encode_us", us "protocol.encode");
          ("protocol.decode_us", us "protocol.decode");
          ("protocol.bytes_per_op", per_op "protocol.bytes");
          ("protocol.alloc_words", per_op "protocol.words");
          ("engine.arrive_us", us "engine.arrive");
          ("engine.depart_us", us "engine.depart");
          ("engine.rebalance_us", us "engine.rebalance");
          ("engine.solve_us", us "engine.solve");
          ("engine.stats_us", us "engine.stats");
          ("engine.alloc_words", per_op "engine.words");
          ("journal.self_us", journal_self);
          ("journal.append_us", us "journal.append");
          ("router.route_ns", per_op "router.route");
          ("incremental.arrive_us", us "incremental.arrive");
          ("incremental.depart_us", us "incremental.depart");
          ("incremental.rebalance_us", us "incremental.rebalance");
          ("incremental.bandwidth_us", us "incremental.bandwidth");
          ("incremental.alloc_words", per_op "incremental.words");
          ("solvers.gtp_us", us "solvers.gtp");
          ("solvers.celf_us", us "solvers.celf");
          ("solvers.gtp-ls_us", us "solvers.gtp-ls");
          ("solvers.oracle_calls", float_of_int oracle_calls);
          ("solvers.delta_evals", float_of_int delta_evals);
          ("inc_oracle.create_us", create_us);
          ("inc_oracle.marginal_ns", marginal_ns);
        ]
      in
      { metrics; spans = List.rev acc.spans; errors = List.rev !errors })
