(* chaos: randomized soak of the supervised sharded server.

   Drives mixed ops from concurrent retrying clients through `tdmd
   serve` (4 durable shards on a 24-vertex line) under a seeded
   probabilistic fault schedule: shard kills mid-batch
   ([die@shard.apply]), kills in the exactly-once window
   ([die@shard.apply.post]), injected apply latency and WAL write
   failures, plus a vandal thread feeding the listener garbage frames.
   It then verifies the failure-semantics invariants:

     1. no acked op lost: every acked arrive (not later departed) is in
        the final live flow set; every acked depart's flow is not;
     2. exactly once: every idempotency id appears at most once across
        the shard journals, and every acked op's id exactly once —
        retries after a mid-op kill were deduplicated, not re-applied;
     3. oracle replay: each shard's final in-memory state is
        bit-identical to a fresh fault-free session replaying that
        shard's journal (the acked timeline), and a full Engine.recover
        of the directory reproduces the live engine fingerprint.

   Five seeds of 2400 ops each, or one seed of 400 under --quick;
   TDMD_CHAOS_SEED=<n> pins the seed.  One "bench-chaos" record per seed
   goes to BENCH_chaos.json. *)

open Tdmd_prelude
module Client = Tdmd_server.Client
module P = Tdmd_server.Protocol
module Session = Tdmd_server.Session
module Engine = Tdmd_server.Engine
module Shard = Tdmd_server.Shard
module Journal = Tdmd_server.Journal
module Faults = Tdmd_server.Faults
module Supervisor = Tdmd_server.Supervisor
module Json = Tdmd_obs.Json

(* Per-worker op log, merged after the soak for the invariant checks. *)
type worker = {
  mutable arrives_acked : (int * string) list;  (* flow, req *)
  mutable departs_acked : (int * string) list;
  mutable arrives_unknown : (int * string) list;
      (* retry budget exhausted / definitive "internal": may or may not
         have been applied *)
  mutable departs_unknown : int list;
  mutable own_live : (int * string) list;  (* acked arrivals not yet departed *)
  mutable conflicts : int;
  mutable conflict_log : (string * int * string) list;  (* kind, flow, req *)
  mutable degraded : int;
  mutable exhausted : int;
}

let seed_run ~seed ~total_ops =
  let inst = Harness.line_instance 24 in
  let partition =
    Tdmd_topo.Partition.make ~seeds:[ 3; 9; 15; 21 ] inst.Tdmd.Instance.graph
      ~shards:4
  in
  let root = Harness.fresh_path "tdmd-chaos" in
  let faults =
    match
      Faults.of_spec
        (Printf.sprintf
           "die@shard.apply:p=0.012;die@shard.apply.post:p=0.006;delay@shard.apply:p=0.03;fail@wal.write.fail:p=0.008;seed=%d"
           seed)
    with
    | Ok f -> f
    | Error msg -> failwith ("chaos: bad fault spec: " ^ msg)
  in
  let config =
    {
      Session.Config.default with
      Session.Config.churn_k = 2;
      Session.Config.durability =
        Some
          (Session.durability ~fsync:Journal.Always ~snapshot_every:0 ~faults
             root);
    }
  in
  let supervisor =
    Supervisor.config ~max_failures:8
      ~backoff:
        (Backoff.policy ~base:0.02 ~cap:0.1 ~max_attempts:0 ~budget:0.0 ())
      ~retry_after_ms:20 ()
  in
  let engine =
    Engine.create ~supervisor ~degraded_reads:true ~config ~shards:4 ~partition
      (Engine.General inst)
  in
  let workers = 8 in
  let per_worker = max 1 (total_ops / workers) in
  let acked = Atomic.make 0 in
  let results =
    Array.init workers (fun _ ->
        {
          arrives_acked = [];
          departs_acked = [];
          arrives_unknown = [];
          departs_unknown = [];
          own_live = [];
          conflicts = 0;
          conflict_log = [];
          degraded = 0;
          exhausted = 0;
        })
  in
  let retry_policy =
    Backoff.policy ~base:0.005 ~cap:0.05 ~max_attempts:0 ~budget:30.0 ()
  in
  let code_of resp =
    match Json.member "code" resp with Some (Json.String c) -> c | _ -> ""
  in
  let worker addr w () =
    let rng = Rng.create ((seed * 1000) + w) in
    let res = results.(w) in
    match Client.connect_retry ~policy:retry_policy ~seed:((seed * 31) + w) addr with
    | Error msg -> failwith ("chaos worker connect: " ^ msg)
    | Ok c ->
      let next_flow = ref 0 in
      for i = 0 to per_worker - 1 do
        let req = Printf.sprintf "s%d.w%d.%d" seed w i in
        let r = Rng.int rng 100 in
        let mutate kind flow request =
          match Client.rpc_retry c ~req ~policy:retry_policy request with
          | Ok resp when Harness.is_ok resp -> (
            Atomic.incr acked;
            match kind with
            | `Arrive ->
              res.arrives_acked <- (flow, req) :: res.arrives_acked;
              res.own_live <- (flow, req) :: res.own_live
            | `Depart ->
              res.departs_acked <- (flow, req) :: res.departs_acked;
              res.own_live <- List.filter (fun (f, _) -> f <> flow) res.own_live)
          | Ok resp -> (
            (* Definitive refusal.  "conflict" would mean exactly-once
               was violated (our id spaces are disjoint); "internal" is
               an injected WAL failure whose outcome is unknown. *)
            if code_of resp = "conflict" then begin
              res.conflicts <- res.conflicts + 1;
              res.conflict_log <-
                ( (match kind with `Arrive -> "arrive" | `Depart -> "depart"),
                  flow, req )
                :: res.conflict_log
            end;
            match kind with
            | `Arrive ->
              res.arrives_unknown <- (flow, req) :: res.arrives_unknown
            | `Depart ->
              res.departs_unknown <- flow :: res.departs_unknown;
              res.own_live <- List.filter (fun (f, _) -> f <> flow) res.own_live)
          | Error msg -> (
            if Client.budget_exhausted msg then
              res.exhausted <- res.exhausted + 1;
            match kind with
            | `Arrive ->
              res.arrives_unknown <- (flow, req) :: res.arrives_unknown
            | `Depart ->
              res.departs_unknown <- flow :: res.departs_unknown;
              res.own_live <- List.filter (fun (f, _) -> f <> flow) res.own_live)
        in
        if r < 40 || (r < 70 && res.own_live = []) then begin
          let flow = 1_000_000 + (w * 100_000) + !next_flow in
          incr next_flow;
          let a = Rng.int rng 23 in
          let b = min 23 (a + 1 + Rng.int rng 5) in
          let path = List.init (b - a + 1) (fun k -> a + k) in
          mutate `Arrive flow (P.Arrive { id = flow; rate = 1 + Rng.int rng 4; path })
        end
        else if r < 70 then begin
          let flow, _ =
            List.nth res.own_live (Rng.int rng (List.length res.own_live))
          in
          mutate `Depart flow (P.Depart flow)
        end
        else if r < 85 then begin
          match
            Client.rpc_retry c ~policy:retry_policy
              (P.Solve { algo = "gtp"; k = 2; seed = i; target = P.Live })
          with
          | Ok resp ->
            if Harness.is_ok resp then Atomic.incr acked;
            if Json.member "degraded" resp = Some (Json.Bool true) then
              res.degraded <- res.degraded + 1
          | Error _ -> ()
        end
        else begin
          let request = if r < 95 then P.Stats else P.Health in
          match Client.rpc_retry c ~policy:retry_policy request with
          | Ok resp ->
            if Harness.is_ok resp then Atomic.incr acked;
            if Json.member "degraded" resp = Some (Json.Bool true) then
              res.degraded <- res.degraded + 1
          | Error _ -> ()
        end
      done;
      Client.close c
  in
  (* Vandal: feeds the listener garbage and half-frames, then vanishes
     without reading — socket-level chaos the reader threads must absorb
     without disturbing anyone else's connection. *)
  let stop = Atomic.make false in
  let vandal_hits = ref 0 in
  let vandal addr () =
    while not (Atomic.get stop) do
      (match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ -> ()
      | fd ->
        (try
           Unix.connect fd (P.sockaddr addr);
           let junk =
             if !vandal_hits mod 2 = 0 then "\xff\xff\xff\xff\x00garbage"
             else "\x00\x00\x00\x08{\"op\":"  (* truncated frame *)
           in
           ignore (Unix.write_substring fd junk 0 (String.length junk));
           incr vandal_hits
         with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ()));
      Thread.delay 0.02
    done
  in
  (* Probe: polls the always-inline health RPC and measures whether the
     rest of the fleet keeps acking while some shard is recovering. *)
  let recovering_pairs = ref 0 in
  let acks_during_recovery = ref 0 in
  let recovering_polls = ref 0 in
  let probe addr () =
    match Client.connect_retry ~policy:retry_policy addr with
    | Error _ -> ()
    | Ok c ->
      let prev_recovering = ref false in
      let prev_acked = ref (Atomic.get acked) in
      while not (Atomic.get stop) do
        (match Client.rpc_retry c ~policy:retry_policy P.Health with
        | Ok resp ->
          let recovering =
            match Json.member "shards" resp with
            | Some (Json.List shards) ->
              List.exists
                (fun s ->
                  Json.member "state" s = Some (Json.String "recovering"))
                shards
            | _ -> false
          in
          let now = Atomic.get acked in
          if recovering then incr recovering_polls;
          if recovering && !prev_recovering then begin
            incr recovering_pairs;
            acks_during_recovery := !acks_during_recovery + (now - !prev_acked)
          end;
          prev_recovering := recovering;
          prev_acked := now
        | Error _ -> ());
        Thread.delay 0.004
      done;
      Client.close c
  in
  let (), wall =
    Tdmd_obs.Clock.time (fun () ->
        Harness.with_server ~domains:4 engine (fun addr ->
            let vandal_t = Thread.create (vandal addr) () in
            let probe_t = Thread.create (probe addr) () in
            List.iter Thread.join
              (List.init workers (fun w -> Thread.create (worker addr w) ()));
            Atomic.set stop true;
            Thread.join vandal_t;
            Thread.join probe_t))
  in
  (* Let in-flight recoveries finish before reading the final state. *)
  let sup = Engine.supervisor engine in
  let deadline = Unix.gettimeofday () +. 15.0 in
  while
    (not
       (Array.for_all
          (fun h -> h.Supervisor.state <> Supervisor.Recovering)
          (Supervisor.health sup)))
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  let health = Supervisor.health sup in
  Array.iteri
    (fun i h ->
      if h.Supervisor.state <> Supervisor.Serving then
        failwith
          (Printf.sprintf "chaos seed %d: shard %d finished %s" seed i
             (Supervisor.state_to_string h.Supervisor.state)))
    health;
  let restarts =
    Array.fold_left (fun acc h -> acc + h.Supervisor.restarts) 0 health
  in
  let trips =
    Array.fold_left (fun acc h -> acc + h.Supervisor.breaker_trips) 0 health
  in
  if trips > 0 then
    failwith (Printf.sprintf "chaos seed %d: circuit breaker tripped" seed);
  (* ---- gather the op log ---- *)
  let conflicts = Array.fold_left (fun a r -> a + r.conflicts) 0 results in
  let arrives_acked =
    Array.to_list results |> List.concat_map (fun r -> r.arrives_acked)
  in
  let departs_acked =
    Array.to_list results |> List.concat_map (fun r -> r.departs_acked)
  in
  let arrives_unknown =
    Array.to_list results |> List.concat_map (fun r -> r.arrives_unknown)
  in
  let departs_unknown =
    Array.to_list results |> List.concat_map (fun r -> r.departs_unknown)
  in
  let acked_total = Atomic.get acked in
  (* ---- invariant 1: no acked op lost ---- *)
  let live_set = Hashtbl.create 1024 in
  for i = 0 to Engine.shard_count engine - 1 do
    List.iter
      (fun (f : Tdmd_flow.Flow.t) -> Hashtbl.replace live_set f.Tdmd_flow.Flow.id ())
      (Session.live_flows (Shard.session (Engine.shard engine i)))
  done;
  let departed = Hashtbl.create 256 in
  List.iter (fun (f, _) -> Hashtbl.replace departed f ()) departs_acked;
  let depart_unknown = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace depart_unknown f ()) departs_unknown;
  List.iter
    (fun (flow, req) ->
      if Hashtbl.mem departed flow then begin
        if Hashtbl.mem live_set flow then
          failwith
            (Printf.sprintf
               "chaos seed %d: flow %d still live after an acked depart" seed
               flow)
      end
      else if not (Hashtbl.mem depart_unknown flow) then
        if not (Hashtbl.mem live_set flow) then
          failwith
            (Printf.sprintf
               "chaos seed %d: acked arrive %s (flow %d) lost — not in the \
                final live set"
               seed req flow))
    arrives_acked;
  (* No phantom flows either: everything live was at least attempted. *)
  let attempted = Hashtbl.create 1024 in
  List.iter (fun (f, _) -> Hashtbl.replace attempted f ()) arrives_acked;
  List.iter (fun (f, _) -> Hashtbl.replace attempted f ()) arrives_unknown;
  Hashtbl.iter
    (fun f () ->
      if f <> 0 && not (Hashtbl.mem attempted f) then
        failwith (Printf.sprintf "chaos seed %d: phantom live flow %d" seed f))
    live_set;
  (* ---- invariant 2: exactly once across the shard journals ---- *)
  let journal_ops_of_shard i =
    let dir = Filename.concat root (Printf.sprintf "shard-%d" i) in
    let segments =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 8
             && String.sub f 0 8 = "journal-"
             && Filename.check_suffix f ".wal")
    in
    match segments with
    | [ seg ] -> (
      match Journal.replay (Filename.concat dir seg) with
      | Ok (ops, 0) -> ops
      | Ok (_, torn) ->
        failwith
          (Printf.sprintf "chaos seed %d: shard %d journal has %d torn bytes"
             seed i torn)
      | Error msg ->
        failwith (Printf.sprintf "chaos seed %d: shard %d replay: %s" seed i msg))
    | segs ->
      failwith
        (Printf.sprintf "chaos seed %d: shard %d has %d journal segments" seed i
           (List.length segs))
  in
  let shard_ops = List.init 4 journal_ops_of_shard in
  if conflicts > 0 then begin
    Array.iter
      (fun r ->
        List.iter
          (fun (kind, flow, req) ->
            Printf.eprintf "conflict: %s flow %d req %s\n" kind flow req;
            List.iteri
              (fun i ops ->
                List.iter
                  (fun op ->
                    match op with
                    | Journal.Arrive { id; req = r; _ } when id = flow ->
                      Printf.eprintf "  shard %d journal: arrive id=%d req=%s\n"
                        i id (Option.value ~default:"-" r)
                    | Journal.Depart { flow_id; req = r } when flow_id = flow ->
                      Printf.eprintf "  shard %d journal: depart id=%d req=%s\n"
                        i flow_id (Option.value ~default:"-" r)
                    | _ -> ())
                  ops)
              shard_ops)
          r.conflict_log)
      results;
    failwith
      (Printf.sprintf
         "chaos seed %d: %d conflict replies — an op was applied twice or a \
          flow lost"
         seed conflicts)
  end;
  let req_counts = Hashtbl.create 4096 in
  let count_req = function
    | Some r ->
      Hashtbl.replace req_counts r
        (1 + Option.value ~default:0 (Hashtbl.find_opt req_counts r))
    | None -> ()
  in
  List.iter
    (List.iter (function
      | Journal.Arrive { req; _ } | Journal.Depart { req; _ }
      | Journal.Rebalance { req; _ } ->
        count_req req))
    shard_ops;
  Hashtbl.iter
    (fun r n ->
      if n > 1 then
        failwith
          (Printf.sprintf "chaos seed %d: req %s applied %d times" seed r n))
    req_counts;
  List.iter
    (fun (_, req) ->
      if Hashtbl.find_opt req_counts req <> Some 1 then
        failwith
          (Printf.sprintf "chaos seed %d: acked arrive %s not journaled" seed req))
    arrives_acked;
  List.iter
    (fun (_, req) ->
      if Hashtbl.find_opt req_counts req <> Some 1 then
        failwith
          (Printf.sprintf "chaos seed %d: acked depart %s not journaled" seed req))
    departs_acked;
  (* ---- invariant 3: bit-identical to the fault-free oracle ---- *)
  let oracle_config = { config with Session.Config.durability = None } in
  List.iteri
    (fun i ops ->
      let oracle = Session.create ~config:oracle_config inst in
      List.iter
        (fun op ->
          match Session.apply_batch oracle [ op ] with
          | [ Ok _ ] -> ()
          | [ Error (code, msg) ] ->
            failwith
              (Printf.sprintf "chaos seed %d: oracle refused a journaled op: %s %s"
                 seed code msg)
          | _ -> assert false)
        ops;
      let live =
        Json.to_string
          (Json.Obj
             (Session.churn_stats (Shard.session (Engine.shard engine i))))
      in
      let replayed = Json.to_string (Json.Obj (Session.churn_stats oracle)) in
      if live <> replayed then
        failwith
          (Printf.sprintf
             "chaos seed %d: shard %d diverged from its oracle replay\n\
              live:   %s\n\
              oracle: %s"
             seed i live replayed);
      Session.close oracle)
    shard_ops;
  (* ---- and the directory as a whole recovers to the same engine ---- *)
  let strip_timing = function
    | Ok (Json.Obj fields) ->
      Ok (Json.Obj (List.filter (fun (k, _) -> k <> "telemetry") fields))
    | r -> r
  in
  let reply_str = function
    | Ok j -> Json.to_string j
    | Error (c, m) -> Printf.sprintf "error %s: %s" c m
  in
  let fingerprint e =
    Json.to_string (Json.Obj (Engine.churn_stats e))
    ^ "|"
    ^ reply_str
        (strip_timing (Engine.solve e ~algo:"gtp" ~k:2 ~seed:5 ~target:P.Live))
  in
  let before = fingerprint engine in
  Engine.close engine;
  (match
     Engine.recover
       (Session.durability ~fsync:Journal.Always ~snapshot_every:0 root)
   with
  | Error msg -> failwith (Printf.sprintf "chaos seed %d: recover: %s" seed msg)
  | Ok recovered ->
    let after = fingerprint recovered in
    Engine.close recovered;
    if before <> after then
      failwith
        (Printf.sprintf
           "chaos seed %d: recovered engine differs from the live one\n\
            live:      %s\n\
            recovered: %s"
           seed before after));
  Harness.rm_rf root;
  let exhausted = Array.fold_left (fun a r -> a + r.exhausted) 0 results in
  let degraded = Array.fold_left (fun a r -> a + r.degraded) 0 results in
  ( wall,
    [
      ("event", Json.String "bench-chaos");
      ("seed", Json.Int seed);
      ("ops", Json.Int (workers * per_worker));
      ("acked", Json.Int acked_total);
      ("arrives_acked", Json.Int (List.length arrives_acked));
      ("departs_acked", Json.Int (List.length departs_acked));
      ("unknown_outcomes",
       Json.Int (List.length arrives_unknown + List.length departs_unknown));
      ("retry_budget_exhausted", Json.Int exhausted);
      ("restarts", Json.Int restarts);
      ("recovering_polls", Json.Int !recovering_polls);
      ("acks_during_recovery", Json.Int !acks_during_recovery);
      ("recovering_pairs", Json.Int !recovering_pairs);
      ("degraded_answers", Json.Int degraded);
      ("vandal_frames", Json.Int !vandal_hits);
      ("wall_seconds", Json.Float wall);
    ],
    restarts,
    (!recovering_pairs, !acks_during_recovery) )

let run () =
  let seeds =
    match Sys.getenv_opt "TDMD_CHAOS_SEED" with
    | Some s -> [ int_of_string s ]
    | None -> if Harness.quick then [ 1 ] else [ 1; 2; 3; 4; 5 ]
  in
  let total_ops = if Harness.quick then 400 else 2400 in
  print_endline "== chaos soak: supervised shards under a seeded fault schedule ==\n";
  let table =
    Table.create
      [ "seed"; "ops"; "acked"; "restarts"; "rec. acks"; "degraded"; "wall (s)" ]
  in
  let path, total_restarts =
    Harness.with_records "chaos" (fun emit ->
        List.fold_left
          (fun total_restarts seed ->
            let wall, fields, restarts, (pairs, rec_acks) =
              seed_run ~seed ~total_ops
            in
            (* Healthy shards must keep answering while a peer recovers:
               when the probe caught recovery windows, acks advanced
               inside them. *)
            if (not Harness.quick) && pairs >= 5 && rec_acks = 0 then
              failwith
                (Printf.sprintf
                   "chaos seed %d: fleet went silent during recovery (%d \
                    windows, 0 acks)"
                   seed pairs);
            emit (Json.Obj fields);
            let get name =
              match List.assoc_opt name fields with
              | Some (Json.Int v) -> string_of_int v
              | _ -> "0"
            in
            Table.add_row table
              [
                string_of_int seed;
                get "ops";
                get "acked";
                get "restarts";
                get "acks_during_recovery";
                get "degraded_answers";
                Printf.sprintf "%.2f" wall;
              ];
            total_restarts + restarts)
          0 seeds)
  in
  Table.print table;
  if (not Harness.quick) && total_restarts = 0 then
    failwith
      "chaos: no supervised restart happened across any seed — the fault \
       schedule is not reaching the shards";
  Printf.printf "(json written to %s)\n%!" path
