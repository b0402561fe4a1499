(* The sharded engine: 1-shard answers bit-identical to one session fed
   through [Session.apply_batch], path-ownership routing with every
   arrival journaled by its home shard alone, group commit under
   concurrency, per-shard crash recovery, the versioned protocol
   envelope, and client-side retries. *)

open Tdmd_prelude
module Json = Tdmd_obs.Json
module P = Tdmd_server.Protocol
module Session = Tdmd_server.Session
module Engine = Tdmd_server.Engine
module Shard = Tdmd_server.Shard
module Journal = Tdmd_server.Journal
module Faults = Tdmd_server.Faults
module Server = Tdmd_server.Server
module Client = Tdmd_server.Client
module Supervisor = Tdmd_server.Supervisor
module Pt = Tdmd_topo.Partition
module Sc = Tdmd_sim.Scenario

let mk_config ?durability ?(churn_k = 2) () =
  {
    Session.Config.churn_k;
        Session.Config.migration_budget = 0;
    Session.Config.dedup_cap = Session.default_dedup_cap;
    Session.Config.durability;
  }

(* A line 0-1-...-(n-1) with one static flow, the shape every journal
   test in this repo uses: arrivals along contiguous runs are valid. *)
let line_instance n =
  let g = Tdmd_graph.Digraph.create n in
  for v = 0 to n - 2 do
    Tdmd_graph.Digraph.add_undirected g v (v + 1)
  done;
  Tdmd.Instance.make ~graph:g
    ~flows:[ Tdmd_flow.Flow.make ~id:0 ~rate:1 ~path:[ 0; 1; 2 ] ]
    ~lambda:0.5

let temp_dir () =
  let path = Filename.temp_file "tdmd-engine" "" in
  Sys.remove path;
  path

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let expect_applied ctx = function
  | Ok json -> json
  | Error (code, msg) -> Alcotest.failf "%s: %s %s" ctx code msg

let int_field ctx name json =
  match Json.member name json with
  | Some (Json.Int v) -> v
  | _ -> Alcotest.failf "%s: missing int field %S in %s" ctx name
           (Json.to_string json)

let strip_timing = function
  | Ok (Json.Obj fields) ->
    Ok (Json.Obj (List.filter (fun (k, _) -> k <> "telemetry") fields))
  | r -> r

let reply_to_string = function
  | Ok json -> Json.to_string json
  | Error (code, msg) -> Printf.sprintf "error %s: %s" code msg

(* Externally observable engine state: churn stats plus a seeded live
   solve, minus wall-clock timing. *)
let engine_fingerprint engine =
  Json.to_string (Json.Obj (Engine.churn_stats engine))
  ^ "|"
  ^ reply_to_string
      (strip_timing
         (Engine.solve engine ~algo:"gtp" ~k:2 ~seed:5 ~target:P.Live))

(* ------------------------------------------------------------------ *)
(* Session.Config construction                                         *)
(* ------------------------------------------------------------------ *)

let test_config_aliases () =
  let d = Session.Config.default in
  Alcotest.(check int) "default churn_k" 8 d.Session.Config.churn_k;
  Alcotest.(check int) "default dedup_cap" Session.default_dedup_cap
    d.Session.Config.dedup_cap;
  Alcotest.(check bool) "default not durable" true
    (d.Session.Config.durability = None);
  (* Two sessions built from the same Config must behave identically —
     construction is a pure function of (Config, instance). *)
  let drive session =
    ignore
      (expect_applied "arrive"
         (Test_journal.arrive session ~req:"a1" ~id:7 ~rate:2 ~path:[ 0; 1; 2 ] ()));
    ignore (expect_applied "depart" (Test_journal.depart session ~req:"d1" 7));
    Json.to_string (Json.Obj (Session.churn_stats session))
  in
  Alcotest.(check string) "create is deterministic"
    (drive (Session.create ~config:(mk_config ()) (line_instance 6)))
    (drive (Session.create ~config:(mk_config ()) (line_instance 6)));
  let tree_inst = Sc.build_tree (Rng.create 11) Sc.default_tree in
  let solve s =
    reply_to_string
      (strip_timing (Session.solve s ~algo:"gtp" ~k:3 ~seed:9))
  in
  Alcotest.(check string) "create_tree is deterministic"
    (solve (Session.create_tree ~config:(mk_config ~churn_k:3 ()) tree_inst))
    (solve (Session.create_tree ~config:(mk_config ~churn_k:3 ()) tree_inst))

(* ------------------------------------------------------------------ *)
(* 1 shard: bit-identical to its session                               *)
(* ------------------------------------------------------------------ *)

let test_one_shard_bit_identical () =
  let tree_inst = Sc.build_tree (Rng.create 4242) Sc.default_tree in
  let k = Sc.default_tree.Sc.k in
  let session = Session.create_tree ~config:(mk_config ~churn_k:k ()) tree_inst in
  let engine = Engine.create ~config:(mk_config ~churn_k:k ()) (Engine.Tree tree_inst) in
  Alcotest.(check int) "one shard" 1 (Engine.shard_count engine);
  (* Whole registry, static target: the engine answer must be the
     session answer, byte for byte. *)
  List.iter
    (fun algo ->
      Alcotest.(check string)
        (Printf.sprintf "solve %s" algo)
        (reply_to_string
           (strip_timing (Session.solve session ~algo ~k ~seed:3)))
        (reply_to_string
           (strip_timing (Engine.solve engine ~algo ~k ~seed:3 ~target:P.Static))))
    [ "gtp"; "celf"; "dp"; "hat"; "random"; "best-effort"; "scaled-dp"; "gtp-ls" ];
  Engine.close engine;
  (* Churn replies must match too — in particular no ["shard"] routing
     field may appear at one shard. *)
  let churn_session = Session.create ~config:(mk_config ()) (line_instance 12) in
  let churn_engine =
    Engine.create ~config:(mk_config ()) (Engine.General (line_instance 12))
  in
  let path = [ 4; 5; 6 ] in
  let via_session =
    reply_to_string
      (Test_journal.arrive churn_session ~req:"r1" ~id:42 ~rate:2 ~path ())
  in
  let engine_reply =
    Engine.arrive churn_engine ~req:"r1" ~id:42 ~rate:2 ~path ()
  in
  Alcotest.(check string) "arrive replies identical" via_session
    (reply_to_string engine_reply);
  (match engine_reply with
  | Ok json ->
    Alcotest.(check bool) "no routing fields at one shard" true
      (Json.member "shard" json = None && Json.member "cross" json = None)
  | Error (code, msg) -> Alcotest.failf "one-shard arrive refused: %s %s" code msg);
  Alcotest.(check string) "depart replies identical"
    (reply_to_string (Test_journal.depart churn_session ~req:"r2" 42))
    (reply_to_string (Engine.depart churn_engine ~req:"r2" 42));
  Alcotest.(check string) "churn stats identical"
    (Json.to_string (Json.Obj (Session.churn_stats churn_session)))
    (Json.to_string (Json.Obj (Engine.churn_stats churn_engine)));
  Engine.close churn_engine

(* ------------------------------------------------------------------ *)
(* Sharded routing                                                     *)
(* ------------------------------------------------------------------ *)

(* 24-vertex line, 4 shards seeded at region midpoints: shard [i] owns
   the contiguous block [6i .. 6i+5]. *)
let sharded_engine () =
  let inst = line_instance 24 in
  let partition =
    Pt.make ~seeds:[ 3; 9; 15; 21 ] inst.Tdmd.Instance.graph ~shards:4
  in
  (Engine.create ~config:(mk_config ()) ~shards:4 ~partition (Engine.General inst),
   partition)

let test_sharded_routing () =
  let engine, partition = sharded_engine () in
  (* BFS fronts from the midpoint seeds meet between blocks; the
     equidistant boundary vertex ties to the lower shard id. *)
  let expected_owner v =
    if v <= 6 then 0 else if v <= 12 then 1 else if v <= 18 then 2 else 3
  in
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "vertex %d owner" v)
        (expected_owner v) (Pt.owner partition v))
    (List.init 24 Fun.id);
  (* Local arrive: routed to its region's shard, tagged with it. *)
  let local =
    expect_applied "local arrive"
      (Engine.arrive engine ~req:"l1" ~id:1 ~rate:2 ~path:[ 7; 8; 9 ] ())
  in
  Alcotest.(check int) "routed to shard 1" 1 (int_field "local" "shard" local);
  Alcotest.(check bool) "local is not cross" true
    (Json.member "cross" local = None);
  (* Cross arrive: three of [4;5;6;7] live in shard 0, one in shard 1 —
     home is the majority owner, and the reply says so. *)
  let cross =
    expect_applied "cross arrive"
      (Engine.arrive engine ~req:"c1" ~id:2 ~rate:1 ~path:[ 4; 5; 6; 7 ] ())
  in
  Alcotest.(check int) "cross home" 0 (int_field "cross" "shard" cross);
  Alcotest.(check bool) "tagged cross" true
    (Json.member "cross" cross = Some (Json.Bool true));
  (* A duplicate id resident on another shard is refused without
     touching any session. *)
  (match Engine.arrive engine ~req:"dup" ~id:1 ~rate:1 ~path:[ 20; 21 ] () with
  | Error ("conflict", _) -> ()
  | r -> Alcotest.failf "cross-shard duplicate: expected conflict, got %s"
           (reply_to_string r));
  (* A retried arrive with the same req dedups at its home shard. *)
  let retry =
    expect_applied "retry"
      (Engine.arrive engine ~req:"l1" ~id:1 ~rate:2 ~path:[ 7; 8; 9 ] ())
  in
  Alcotest.(check bool) "retry dedups" true
    (Json.member "dedup" retry = Some (Json.Bool true));
  (* Invalid path: refused as bad-request by the router. *)
  (match Engine.arrive engine ~req:"bad" ~id:3 ~rate:1 ~path:[ 7; 99 ] () with
  | Error ("bad-request", _) -> ()
  | r -> Alcotest.failf "bad path: expected bad-request, got %s"
           (reply_to_string r));
  (match List.assoc "flows" (Engine.churn_stats engine) with
  | Json.Int v -> Alcotest.(check int) "two flows live" 2 v
  | _ -> Alcotest.fail "missing flows in churn stats");
  (* Departs route by the remembered assignment — no hint needed. *)
  let dep = expect_applied "depart" (Engine.depart engine ~req:"d1" 2) in
  Alcotest.(check int) "depart routed home" 0 (int_field "depart" "shard" dep);
  (* Unknown flows are refused before any shard journals anything. *)
  (match Engine.depart engine ~req:"d2" 999 with
  | Error ("conflict", _) -> ()
  | r ->
    Alcotest.failf "unknown depart: expected conflict, got %s"
      (reply_to_string r));
  (* Live solve runs over the union of the shards' flows. *)
  ignore
    (expect_applied "live solve"
       (Engine.solve engine ~algo:"gtp" ~k:2 ~seed:1 ~target:P.Live));
  (* Sharded stats carry the per-shard section. *)
  (match List.assoc_opt "shards" (Engine.stats_fields engine) with
  | Some (Json.List l) ->
    Alcotest.(check int) "one stats entry per shard" 4 (List.length l);
    let shard_flows =
      List.fold_left
        (fun acc sh ->
          match Json.member "flows" sh with
          | Some (Json.Int v) -> acc + v
          | _ -> Alcotest.fail "per-shard stats must carry \"flows\"")
        0 l
    in
    Alcotest.(check int) "per-shard flows sum to the live count" 1 shard_flows
  | _ -> Alcotest.fail "sharded stats must carry a \"shards\" list");
  Engine.close engine

(* ------------------------------------------------------------------ *)
(* Group commit under concurrency, durable, with recovery              *)
(* ------------------------------------------------------------------ *)

let test_group_commit_concurrent () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let inst = line_instance 12 in
  let partition = Pt.make ~seeds:[ 2; 8 ] inst.Tdmd.Instance.graph ~shards:2 in
  let cfg = Session.durability ~fsync:Journal.Always dir in
  let engine =
    Engine.create ~config:(mk_config ~durability:cfg ()) ~shards:2 ~partition
      (Engine.General inst)
  in
  let threads = 6 and per_thread = 15 in
  let failures = ref [] in
  let failures_lock = Mutex.create () in
  let worker t () =
    let base = t * 6 in (* region of shard (t mod 2): a short run *)
    let lo = if t mod 2 = 0 then 0 else 6 in
    for r = 0 to per_thread - 1 do
      let id = ((t + 1) * 1000) + r in
      let path = [ lo + (r mod 4); lo + (r mod 4) + 1 ] in
      let reply =
        if r mod 3 = 2 then Engine.depart engine ~req:(Printf.sprintf "d%d" id) (id - 1)
        else
          Engine.arrive engine ~req:(Printf.sprintf "a%d" id) ~id ~rate:1 ~path ()
      in
      match reply with
      | Ok _ -> ()
      | Error (code, msg) ->
        Locked.with_lock failures_lock (fun () ->
            failures :=
              Printf.sprintf "thread %d op %d (base %d): %s %s" t r base code msg
              :: !failures)
    done
  in
  let ts = List.init threads (fun t -> Thread.create (worker t) ()) in
  List.iter Thread.join ts;
  (match !failures with
  | [] -> ()
  | msgs -> Alcotest.fail (String.concat "\n" msgs));
  (* Group commit accounting must be coherent on every shard. *)
  Array.iter
    (fun i ->
      let st = Shard.stats (Engine.shard engine i) in
      Alcotest.(check bool) "ops were batched" true (st.Shard.batches > 0);
      Alcotest.(check bool) "batch sizes coherent" true
        (st.Shard.batched_ops >= st.Shard.batches
        && st.Shard.batch_max >= 1
        && st.Shard.queue_depth = 0))
    [| 0; 1 |];
  let before = engine_fingerprint engine in
  Engine.close engine;
  (* A clean close snapshots every shard; recovery must reproduce the
     state bit for bit. *)
  match Engine.recover cfg with
  | Error msg -> Alcotest.failf "recover after close: %s" msg
  | Ok recovered ->
    Alcotest.(check int) "two shards detected" 2 (Engine.shard_count recovered);
    Alcotest.(check string) "recovered state identical" before
      (engine_fingerprint recovered);
    Engine.close recovered

(* ------------------------------------------------------------------ *)
(* Durable-directory helpers                                           *)
(* ------------------------------------------------------------------ *)

let shard_root root i = Filename.concat root (Printf.sprintf "shard-%d" i)

let root_entries dir = List.sort compare (Array.to_list (Sys.readdir dir))

let read_all path = In_channel.with_open_bin path In_channel.input_all

let write_all path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let append_bytes path data =
  Out_channel.with_open_gen
    [ Open_wronly; Open_creat; Open_append; Open_binary ]
    0o644 path
    (fun oc -> Out_channel.output_string oc data)

let rec copy_tree src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let s = Filename.concat src name and d = Filename.concat dst name in
      if Sys.is_directory s then copy_tree s d else write_all d (read_all s))
    (Sys.readdir src)

(* The segment a shard directory's snapshot names: its live journal. *)
let live_journal dir =
  match
    Result.map (Json.member "epoch")
      (Json.of_string (read_all (Filename.concat dir "snapshot.json")))
  with
  | Ok (Some (Json.Int e)) ->
    Filename.concat dir (Printf.sprintf "journal-%d.wal" e)
  | _ -> Alcotest.failf "%s: the snapshot names no epoch" dir

(* ------------------------------------------------------------------ *)
(* Cross-shard arrivals: one home shard, one journal                   *)
(* ------------------------------------------------------------------ *)

(* The records a shard directory's live journal holds for [req]. *)
let records_for dir req =
  match Journal.replay (live_journal dir) with
  | Error msg -> Alcotest.failf "%s: %s" dir msg
  | Ok (ops, _) ->
    List.length
      (List.filter
         (function
           | Journal.Arrive { req = r; _ } | Journal.Depart { req = r; _ }
           | Journal.Rebalance { req = r; _ } ->
             r = Some req)
         ops)

(* A cross arrival is journaled by its home shard and by no other, so
   at 1 and at 4 shards the root holds only the shard directories after
   create, churn, close and recover, and the arrival's retry after
   recovery dedups at its home shard. *)
let test_cross_arrival_home_journal () =
  List.iter
    (fun shards ->
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let ctx fmt = Printf.ksprintf (Printf.sprintf "%d shards: %s" shards) fmt in
      let check_root at =
        Alcotest.(check (list string))
          (ctx "root after %s" at)
          (List.init shards (Printf.sprintf "shard-%d"))
          (root_entries dir)
      in
      let cfg = Session.durability ~fsync:Journal.Always dir in
      let engine =
        Engine.create ~config:(mk_config ~durability:cfg ()) ~shards
          (Engine.General (line_instance 24))
      in
      check_root "create";
      (* On the 4-shard partition of the 24-line, [2;3;4;5] touches
         shards 1, 2 and 3, and shard 3 owns most of it. *)
      let arrive () = Engine.arrive engine ~req:"x" ~id:6 ~rate:2 ~path:[ 2; 3; 4; 5 ] () in
      let reply = expect_applied (ctx "cross arrive") (arrive ()) in
      let home = if shards = 1 then 0 else int_field "cross" "shard" reply in
      Alcotest.(check bool) (ctx "tagged cross") (shards > 1)
        (Json.member "cross" reply = Some (Json.Bool true));
      Alcotest.(check (list int))
        (ctx "journaled by the home shard alone")
        (List.init shards (fun i -> if i = home then 1 else 0))
        (List.init shards (fun i -> records_for (shard_root dir i) "x"));
      check_root "churn";
      Engine.close engine;
      check_root "close";
      match Engine.recover cfg with
      | Error msg -> Alcotest.failf "%s" (ctx "recover: %s" msg)
      | Ok engine ->
        Fun.protect ~finally:(fun () -> Engine.close engine) @@ fun () ->
        check_root "recover";
        Alcotest.(check bool) (ctx "the retry dedups") true
          (Json.member "dedup" (expect_applied (ctx "retry") (arrive ()))
          = Some (Json.Bool true)))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Per-shard crash matrix                                              *)
(* ------------------------------------------------------------------ *)

(* The PR 4 crash discipline, sharded: drive a workload that mixes
   shard-local and cross-shard ops against a 2-shard durable engine
   whose fault plan crashes at the nth pass of a WAL/snapshot point —
   in whichever shard's journal happens to hit it.  Recover, replay the
   whole workload with the same req ids (the client retry protocol),
   and require the result to be bit-identical to an uninterrupted
   run. *)

type wop = A of int * int * int list | D of int | DU of int | R of int

(* On the default 2-shard partition of the 6-line, shard 0 owns
   {0, 1} and shard 1 owns {2, 3, 4, 5}; paths touching both sides are
   cross-shard ops. *)
let sharded_workload =
  [
    A (1, 2, [ 0; 1 ]);        (* local to shard 0 *)
    A (2, 4, [ 3; 4; 5 ]);     (* local to shard 1 *)
    A (3, 1, [ 1; 2; 3 ]);     (* cross *)
    D 2;
    A (4, 3, [ 0; 1; 2 ]);     (* cross, home 0 *)
    DU 9999;                   (* unknown id: refused, never journaled *)
    R 3;                       (* rebalance: fans out to both shards *)
    A (5, 2, [ 2; 3 ]);        (* local to shard 1 *)
    D 1;
    R 2;
  ]

let apply_wop engine i wop =
  let req = Printf.sprintf "req-%d" i in
  match wop with
  | A (id, rate, path) -> Engine.arrive engine ~req ~id ~rate ~path ()
  | D id | DU id -> Engine.depart engine ~req id
  | R budget -> Engine.rebalance engine ~req ~budget ()

(* [DU] ops expect the "conflict" refusal of an unknown depart. *)
let expect_wop ctx wop reply =
  match (wop, reply) with
  | DU _, Error ("conflict", _) -> ()
  | DU _, Ok _ -> Alcotest.failf "%s: unknown depart was accepted" ctx
  | _, reply -> ignore (expect_applied ctx reply)

let sharded_reference =
  lazy
    (let engine =
       Engine.create ~config:(mk_config ()) ~shards:2
         (Engine.General (line_instance 6))
     in
     List.iteri
       (fun i wop -> expect_wop "reference" wop (apply_wop engine i wop))
       sharded_workload;
     engine_fingerprint engine)

let crash_and_recover_sharded ~point ~nth ~snapshot_every =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let faults =
    match Faults.of_spec (Printf.sprintf "crash@%s:%d" point nth) with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let cfg = Session.durability ~snapshot_every ~faults dir in
  (* The engine is created with the DEFAULT partitioner so recovery —
     which recomputes the partition from the recovered graph — routes
     replayed ops exactly as the original did. *)
  (match
     Engine.create ~config:(mk_config ~durability:cfg ()) ~shards:2
       (Engine.General (line_instance 6))
   with
  | exception Faults.Crash _ -> ()
  | engine -> (
    try
      List.iteri
        (fun i wop ->
          expect_wop
            (Printf.sprintf "%s op %d" point i)
            wop
            (apply_wop engine i wop))
        sharded_workload
    with Faults.Crash _ -> ()));
  let clean = Session.durability ~snapshot_every dir in
  match Engine.recover clean with
  | Error msg -> Alcotest.failf "%s:%d: recover failed: %s" point nth msg
  | Ok recovered ->
    List.iteri
      (fun i wop ->
        expect_wop
          (Printf.sprintf "%s:%d replay op %d" point nth i)
          wop
          (apply_wop recovered i wop))
      sharded_workload;
    let got = engine_fingerprint recovered in
    Engine.close recovered;
    if got <> Lazy.force sharded_reference then
      Alcotest.failf "%s:%d: recovered state differs\nref: %s\ngot: %s" point
        nth
        (Lazy.force sharded_reference)
        got

let sharded_crash_matrix =
  [
    (* Early and late passes of every WAL point; the hit counter is
       global across the two shard journals, so different [nth]s land
       the crash in different journals. *)
    ("wal.append.pre_write", 1, 0);
    ("wal.append.pre_write", 5, 0);
    ("wal.append.post_write", 2, 0);
    ("wal.append.post_write", 7, 0);
    ("wal.append.post_fsync", 3, 0);
    ("wal.append.post_fsync", 9, 0);
    (* Hits 1-2 are the two seed snapshots at construction; nth=3
       crashes the first mid-workload snapshot. *)
    ("snap.pre_rename", 3, 2);
    ("snap.post_rename", 3, 2);
  ]

let test_sharded_crash_matrix () =
  List.iter
    (fun (point, nth, snapshot_every) ->
      crash_and_recover_sharded ~point ~nth ~snapshot_every)
    sharded_crash_matrix

(* ------------------------------------------------------------------ *)
(* Shard recovery: independent of order, nothing left open on failure  *)
(* ------------------------------------------------------------------ *)

(* [Engine.recover] recovers the shards on several domains at once.
   Each shard reads only its own directory, so the engine must equal a
   reference that recovers the shards one at a time in shard order; and
   a failed recovery must name the lowest failing shard and release
   every journal any shard opened. *)

module Router = Tdmd_server.Router

(* A record header promising 64 payload bytes followed by only 10 of
   them: what a crash in the middle of an append leaves. *)
let torn_tail = "\000\000\000\064\000\000\000\000" ^ String.make 10 'x'

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let recovery_line = 20

type hop =
  | H_arrive of int * int * int * int  (* id, rate, first vertex, length *)
  | H_depart of int
  | H_rebalance of int

let apply_hop engine i hop =
  let req = Printf.sprintf "h-%d" i in
  match hop with
  | H_arrive (id, rate, first, len) ->
    let len = Int.min len (recovery_line - first) in
    Engine.arrive engine ~req ~id ~rate ~path:(List.init len (fun j -> first + j)) ()
  | H_depart id -> Engine.depart engine ~req id
  | H_rebalance budget -> Engine.rebalance engine ~req ~budget ()

type recovery_case = {
  shards : int;
  snapshot_every : int;
  history : hop list;
  torn : bool list;  (* per shard: a torn tail *)
}

let print_hop = function
  | H_arrive (id, rate, first, len) -> Printf.sprintf "A(%d,%d,%d,%d)" id rate first len
  | H_depart id -> Printf.sprintf "D%d" id
  | H_rebalance b -> Printf.sprintf "R%d" b

let print_case c =
  Printf.sprintf "shards %d, snapshot_every %d, torn [%s], history [%s]"
    c.shards c.snapshot_every
    (String.concat ";" (List.map string_of_bool c.torn))
    (String.concat ";" (List.map print_hop c.history))

let gen_case =
  let open QCheck.Gen in
  let hop =
    frequency
      [
        ( 5,
          map
            (fun (id, rate, first, len) -> H_arrive (id, rate, first, len))
            (quad (int_range 1 40) (int_range 1 5)
               (int_range 0 (recovery_line - 2))
               (int_range 2 5)) );
        (2, map (fun id -> H_depart id) (int_range 1 40));
        (1, map (fun b -> H_rebalance b) (int_range 0 3));
      ]
  in
  map
    (fun ((shards, snapshot_every), (history, torn)) ->
      { shards; snapshot_every; history; torn })
    (pair
       (pair (int_range 2 5) (oneofl [ 0; 3 ]))
       (pair (list_size (int_range 0 30) hop)
          (list_repeat 5 (frequency [ (3, return false); (1, return true) ]))))

(* Drive the history on a durable engine, then crash it: no shard
   takes a final snapshot, so recovery replays every journaled op.  The
   torn tails are written into the crashed directory afterwards. *)
let crash_history dir c =
  let cfg =
    Session.durability ~fsync:Journal.Never ~snapshot_every:c.snapshot_every dir
  in
  let engine =
    Engine.create ~config:(mk_config ~durability:cfg ()) ~shards:c.shards
      (Engine.General (line_instance recovery_line))
  in
  List.iteri (fun i hop -> ignore (apply_hop engine i hop)) c.history;
  for i = 0 to c.shards - 1 do
    Session.abandon (Shard.session (Engine.shard engine i))
  done;
  Engine.close engine;
  List.iteri
    (fun i torn ->
      if torn && i < c.shards then append_bytes (live_journal (shard_root dir i)) torn_tail)
    c.torn

(* The reference: every shard recovered alone, in shard order, and the
   routing table rebuilt from their live flows. *)
let reference_recover dir ~shards =
  let sessions =
    Array.init shards (fun i ->
        match Session.recover (Session.durability ~fsync:Journal.Never (shard_root dir i)) with
        | Ok s -> s
        | Error msg -> Alcotest.failf "reference shard %d: %s" i msg)
  in
  let routes = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      List.iter
        (fun (f : Tdmd_flow.Flow.t) -> Hashtbl.replace routes f.Tdmd_flow.Flow.id i)
        (Session.live_flows s))
    sessions;
  (sessions, routes)

(* [engine_fingerprint] of an engine over [sessions]: their summaries
   folded from shard 0's, and a live solve of their flows in shard
   order. *)
let reference_fingerprint sessions =
  let add (a : Session.churn_summary) (b : Session.churn_summary) =
    Session.
      {
        live_flows = a.live_flows + b.live_flows;
        placement = Tdmd.Placement.union a.placement b.placement;
        bandwidth = a.bandwidth +. b.bandwidth;
        feasible = a.feasible && b.feasible;
        moves = a.moves + b.moves;
        arrivals = a.arrivals + b.arrivals;
        departures = a.departures + b.departures;
        rebalances = a.rebalances + b.rebalances;
        rebalance_moves = a.rebalance_moves + b.rebalance_moves;
      }
  in
  let summaries = Array.map Session.churn_summary sessions in
  let total =
    Array.fold_left add summaries.(0)
      (Array.sub summaries 1 (Array.length summaries - 1))
  in
  let general = Session.general sessions.(0) in
  let solve =
    match
      Tdmd.Instance.make ~graph:general.Tdmd.Instance.graph
        ~flows:(List.concat_map Session.live_flows (Array.to_list sessions))
        ~lambda:general.Tdmd.Instance.lambda
    with
    | live -> Session.solve_on_instance ~algo:"gtp" ~k:2 ~seed:5 ~target:P.Live live
    | exception Invalid_argument msg -> Error ("internal", msg)
  in
  Json.to_string (Json.Obj (Session.summary_fields total))
  ^ "|" ^ reply_to_string (strip_timing solve)

(* A shard's durability stats without its directory: its epoch, journal
   bytes, replayed, torn and dedup counters. *)
let durability_sans_dir session =
  match Session.durability_stats session with
  | [ ("durability", Json.Obj fields) ] ->
    Json.to_string (Json.Obj (List.remove_assoc "dir" fields))
  | _ -> Alcotest.fail "a durable session without durability stats"

let prop_recovery_order_free =
  QCheck.Test.make ~count:50
    ~name:"Engine.recover = per-shard Session.recover in shard order"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let dir = temp_dir () and copy = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir; rm_rf copy) @@ fun () ->
      crash_history dir c;
      copy_tree dir copy;
      let engine =
        match Engine.recover (Session.durability ~fsync:Journal.Never dir) with
        | Ok engine -> engine
        | Error msg -> QCheck.Test.fail_reportf "recover: %s" msg
      in
      let sessions, routes = reference_recover copy ~shards:c.shards in
      let check what got want =
        if got <> want then
          QCheck.Test.fail_reportf "%s differs\nengine:    %s\nreference: %s" what got want
      in
      check "fingerprint" (engine_fingerprint engine) (reference_fingerprint sessions);
      List.iter
        (fun flow_id ->
          let route r = Option.fold ~none:"-" ~some:string_of_int r in
          check
            (Printf.sprintf "route of flow %d" flow_id)
            (route (Router.lookup (Engine.router engine) ~flow_id))
            (route (Hashtbl.find_opt routes flow_id)))
        (List.init 40 (fun i -> i + 1));
      Array.iteri
        (fun i s ->
          check
            (Printf.sprintf "shard %d durability" i)
            (durability_sans_dir (Shard.session (Engine.shard engine i)))
            (durability_sans_dir s))
        sessions;
      for i = 0 to c.shards - 1 do
        Session.abandon (Shard.session (Engine.shard engine i))
      done;
      Engine.close engine;
      Array.iter Session.abandon sessions;
      true)

(* A closed durable engine with a short history on every shard; its
   fingerprint. *)
let closed_engine dir ~shards =
  let cfg = Session.durability ~fsync:Journal.Never dir in
  let engine =
    Engine.create ~config:(mk_config ~durability:cfg ()) ~shards
      (Engine.General (line_instance recovery_line))
  in
  List.iteri
    (fun i hop -> ignore (expect_applied "set-up" (apply_hop engine i hop)))
    [
      H_arrive (1, 2, 0, 3);
      H_arrive (2, 1, 6, 4);
      H_arrive (3, 3, 12, 5);
      H_arrive (4, 2, 3, 5);
      H_rebalance 2;
    ];
  let fingerprint = engine_fingerprint engine in
  Engine.close engine;
  fingerprint

let expect_recover_error ctx cfg expected =
  let before = fd_count () in
  (match Engine.recover cfg with
  | Ok engine ->
    Engine.close engine;
    Alcotest.failf "%s: recovered" ctx
  | Error msg -> Alcotest.(check string) (ctx ^ ": error") expected msg);
  Alcotest.(check int) (ctx ^ ": no descriptor left open") before (fd_count ())

(* Every failure path of [Engine.recover] releases what it opened:
   a shard that cannot recover (the shards before it, and after it,
   were opened by then), and an earlier build's coordinator journal
   that cannot be removed.  Once repaired, the directory recovers to
   the state it was closed in. *)
let test_failed_recover_releases () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let fingerprint = closed_engine dir ~shards:3 in
  let cfg = Session.durability ~fsync:Journal.Never dir in
  let snapshot = Filename.concat (shard_root dir 2) "snapshot.json" in
  let intact = read_all snapshot in
  write_all snapshot "{";
  expect_recover_error "cut shard-2 snapshot" cfg "shard 2: expected '\"' at offset 1";
  write_all snapshot intact;
  let coord = Filename.concat dir "coord.wal" in
  Unix.mkdir coord 0o755;
  expect_recover_error "coordinator journal is a directory" cfg
    (Printf.sprintf "%s: %s" coord (Unix.error_message Unix.EISDIR));
  Unix.rmdir coord;
  match Engine.recover cfg with
  | Error msg -> Alcotest.failf "repaired directory: %s" msg
  | Ok engine ->
    Alcotest.(check string) "repaired directory recovers" fingerprint
      (engine_fingerprint engine);
    Engine.close engine

(* Shards 1 and 3 both fail: shard 3 at once on a cut snapshot, shard 1
   only at the end of a 40-record replay, on a duplicate arrival.  Shard
   3 usually fails first, yet every run names shard 1, as a recovery in
   shard order does. *)
let test_lowest_failing_shard () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  ignore (closed_engine dir ~shards:4);
  let journal = live_journal (shard_root dir 1) in
  let arrival id =
    Journal.Arrive { id; rate = 1; path = [ id mod 10; (id mod 10) + 1 ]; req = None }
  in
  List.iter
    (fun id -> append_bytes journal (Journal.encode (arrival id)))
    (List.init 40 (fun i -> 100 + i) @ [ 100 ]);
  write_all (Filename.concat (shard_root dir 3) "snapshot.json") "{";
  let cfg = Session.durability ~fsync:Journal.Never dir in
  for run = 1 to 10 do
    expect_recover_error
      (Printf.sprintf "run %d" run)
      cfg "shard 1: journal replay failed: Incremental.arrive: duplicate flow id"
  done

(* ------------------------------------------------------------------ *)
(* Versioned envelope                                                  *)
(* ------------------------------------------------------------------ *)

let test_envelope_versioning () =
  (match P.request_of_json (Json.Obj [ ("op", Json.String "ping") ]) with
  | Ok env -> Alcotest.(check int) "absent v is V1" 1 (P.version_to_int env.P.version)
  | Error e -> Alcotest.failf "bare ping refused: %s" e);
  (match
     P.request_of_json
       (Json.Obj [ ("op", Json.String "ping"); ("v", Json.Int 1) ])
   with
  | Ok env -> Alcotest.(check int) "explicit v=1" 1 (P.version_to_int env.P.version)
  | Error e -> Alcotest.failf "v=1 ping refused: %s" e);
  (match
     P.request_of_json
       (Json.Obj [ ("op", Json.String "ping"); ("v", Json.Int 2) ])
   with
  | Error e ->
    Alcotest.(check string) "future version named" "unsupported protocol version 2" e
  | Ok _ -> Alcotest.fail "v=2 must be refused");
  (match
     P.request_of_json
       (Json.Obj [ ("op", Json.String "ping"); ("v", Json.String "1") ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-integer v must be refused");
  (match
     P.request_of_json
       (Json.Obj
          [ ("op", Json.String "depart"); ("flow_id", Json.Int 3);
            ("shard_hint", Json.Int 2) ])
   with
  | Ok env -> Alcotest.(check (option int)) "shard_hint parsed" (Some 2) env.P.shard_hint
  | Error e -> Alcotest.failf "hinted depart refused: %s" e);
  (match
     P.request_of_json
       (Json.Obj
          [ ("op", Json.String "depart"); ("flow_id", Json.Int 3);
            ("shard_hint", Json.Int (-1)) ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative shard_hint must be refused");
  (* Round trip: the writer emits what the parser accepts. *)
  match
    P.request_of_json
      (P.request_to_json ~req:"r" ~shard_hint:1 (P.Depart 9))
  with
  | Ok env ->
    Alcotest.(check (option int)) "round-trip hint" (Some 1) env.P.shard_hint;
    Alcotest.(check bool) "round-trip op" true (env.P.request = P.Depart 9)
  | Error e -> Alcotest.failf "round trip failed: %s" e

(* ------------------------------------------------------------------ *)
(* Fake replicas (client side)                                         *)
(* ------------------------------------------------------------------ *)

let temp_addr () =
  let path = Filename.temp_file "tdmd-engine" ".sock" in
  Sys.remove path;
  P.Unix_sock path

(* A one-frame fake replica: accepts connections and answers every
   frame with the given response. *)
let fake_replica addr respond =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (P.sockaddr addr);
  Unix.listen fd 4;
  let stop = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.accept fd with
          | exception Unix.Unix_error _ -> Atomic.set stop true
          | conn, _ ->
            (try
               let rec serve () =
                 match P.read_frame conn with
                 | Ok frame ->
                   P.write_frame conn (respond frame);
                   serve ()
                 | Error (`Eof | `Bad _) -> ()
               in
               serve ()
             with Unix.Unix_error _ -> ());
            (try Unix.close conn with Unix.Unix_error _ -> ())
        done)
      ()
  in
  fun () ->
    Atomic.set stop true;
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Thread.join thread

(* ------------------------------------------------------------------ *)
(* Client retry budget and retry_after_ms                              *)
(* ------------------------------------------------------------------ *)

let test_client_retry_budget_exhausted () =
  let addr = temp_addr () in
  let hits = Atomic.make 0 in
  let stop =
    fake_replica addr (fun _ ->
        Atomic.incr hits;
        P.error ~retry_after_ms:3 ~code:"unavailable" "shard restarting")
  in
  Fun.protect ~finally:stop @@ fun () ->
  let c = Client.connect ~seed:7 addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match
    Client.rpc_retry c
      ~policy:(Backoff.policy ~base:0.001 ~cap:0.002 ~max_attempts:2 ())
      P.Ping
  with
  | Ok _ -> Alcotest.fail "a permanently unavailable server must exhaust"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "flagged budget-exhausted (%s)" msg)
      true
      (Client.budget_exhausted msg);
    (* max_attempts 2 = the initial try plus two retries. *)
    Alcotest.(check int) "three attempts on the wire" 3 (Atomic.get hits)

let test_client_retry_honors_hint () =
  let addr = temp_addr () in
  let hits = Atomic.make 0 in
  let stop =
    fake_replica addr (fun _ ->
        if Atomic.fetch_and_add hits 1 < 2 then
          P.error ~retry_after_ms:25 ~code:"unavailable" "shard recovering"
        else P.ok [])
  in
  Fun.protect ~finally:stop @@ fun () ->
  let c = Client.connect ~seed:7 addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match
     Client.rpc_retry c
       ~policy:(Backoff.policy ~base:0.001 ~cap:1.0 ~max_attempts:5 ())
       P.Ping
   with
  | Ok resp ->
    Alcotest.(check bool) "answered once the shard is back" true
      (Json.member "ok" resp = Some (Json.Bool true))
  | Error e -> Alcotest.failf "retry through recovery failed: %s" e);
  Alcotest.(check int) "two refusals then success" 3 (Atomic.get hits);
  (* The two waits took the server's 25 ms hint, not the 1 ms base. *)
  Alcotest.(check bool) "server hint honored" true
    (Unix.gettimeofday () -. t0 >= 0.03)

(* ------------------------------------------------------------------ *)
(* Supervision: degradation arc, breaker trip, cross arrivals, lost acks *)
(* ------------------------------------------------------------------ *)

(* A 2-shard durable engine over the 6-line (shard 0 owns {0, 1},
   shard 1 owns {2..5}) with a fault plan and supervisor knobs chosen
   per test.  fsync Always + snapshot_every 0 keeps each shard's whole
   applied timeline in one journal. *)
let sup_create ~spec ~sup_cfg ?degraded_reads dir =
  let faults =
    match Faults.of_spec spec with Ok t -> t | Error m -> Alcotest.fail m
  in
  let cfg =
    Session.durability ~fsync:Journal.Always ~snapshot_every:0 ~faults dir
  in
  Engine.create ~supervisor:sup_cfg ?degraded_reads
    ~config:(mk_config ~durability:cfg ()) ~shards:2
    (Engine.General (line_instance 6))

(* Submit a shard-1-local arrive into an armed [die@shard.apply:1]: the
   leader dies with the batch un-applied, Supervisor.protect absorbs it,
   and the caller gets the supervised "unavailable" refusal. *)
let kill_shard1 engine =
  match Engine.arrive engine ~req:"kill" ~id:7 ~rate:1 ~path:[ 3; 4; 5 ] () with
  | Error ("unavailable", _) -> ()
  | r -> Alcotest.failf "killing op: expected unavailable, got %s"
           (reply_to_string r)

(* The full arc: Serving -> failure -> Recovering (ops gated, healthy
   shards keep serving, live reads refused, static solves untouched) ->
   supervised restart -> Serving, with the gated ops' retries applying
   cleanly and the health counters telling the story. *)
let test_supervised_degradation_arc () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sup_cfg =
    Supervisor.config ~max_failures:3
      ~backoff:(Backoff.policy ~base:0.15 ~cap:0.3 ())
      ~retry_after_ms:7 ()
  in
  let engine = sup_create ~spec:"die@shard.apply:1" ~sup_cfg dir in
  Fun.protect ~finally:(fun () -> Engine.close engine) @@ fun () ->
  let sup = Engine.supervisor engine in
  Alcotest.(check int) "retry hint plumbed" 7 (Engine.retry_after_ms engine);
  kill_shard1 engine;
  (* report_failure fired synchronously before the refusal returned, and
     the recovery thread sleeps its 150 ms backoff base first — a
     deterministic Recovering window for the assertions below. *)
  Alcotest.(check bool) "shard 1 recovering" true
    (Supervisor.state sup 1 = Supervisor.Recovering);
  (match Engine.arrive engine ~req:"a2" ~id:8 ~rate:1 ~path:[ 4; 5 ] () with
  | Error ("unavailable", _) -> ()
  | r -> Alcotest.failf "op at recovering shard: %s" (reply_to_string r));
  ignore
    (expect_applied "healthy shard serves through the outage"
       (Engine.arrive engine ~req:"a0" ~id:9 ~rate:1 ~path:[ 0; 1 ] ()));
  (match Engine.read_status engine with
  | Engine.Read_unavailable _ -> ()
  | _ -> Alcotest.fail "live reads must be refused without degraded_reads");
  (match Engine.solve engine ~algo:"gtp" ~k:2 ~seed:1 ~target:P.Live with
  | Error ("unavailable", _) -> ()
  | r -> Alcotest.failf "live solve while down: %s" (reply_to_string r));
  ignore
    (expect_applied "static solve never health-gated"
       (Engine.solve engine ~algo:"gtp" ~k:2 ~seed:1 ~target:P.Static));
  Alcotest.(check bool) "supervised restart reaches Serving" true
    (Supervisor.await sup 1 Supervisor.Serving);
  (* The die fired before apply, so nothing was journaled: both gated
     ops' retries (same reqs) apply fresh rather than dedup. *)
  let retried =
    expect_applied "killed op retried"
      (Engine.arrive engine ~req:"kill" ~id:7 ~rate:1 ~path:[ 3; 4; 5 ] ())
  in
  Alcotest.(check bool) "fresh apply, not dedup" true
    (Json.member "dedup" retried = None);
  ignore
    (expect_applied "gated op retried"
       (Engine.arrive engine ~req:"a2" ~id:8 ~rate:1 ~path:[ 4; 5 ] ()));
  let h = (Supervisor.health sup).(1) in
  Alcotest.(check int) "one supervised restart" 1 h.Supervisor.restarts;
  Alcotest.(check int) "no breaker trip" 0 h.Supervisor.breaker_trips;
  Alcotest.(check bool) "healthy again" true
    (List.assoc "healthy" (Engine.health_fields engine) = Json.Bool true)

(* K consecutive failed recoveries trip the breaker: with every attempt
   at the sup.recover point dying, the shard lands Poisoned and stays
   there while the rest of the engine keeps serving. *)
let test_breaker_trips_to_poisoned () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sup_cfg =
    Supervisor.config ~max_failures:3
      ~backoff:(Backoff.policy ~base:0.001 ~cap:0.002 ()) ()
  in
  let engine =
    sup_create ~spec:"die@shard.apply:1;die@sup.recover:p=1;seed=3" ~sup_cfg dir
  in
  Fun.protect ~finally:(fun () -> Engine.close engine) @@ fun () ->
  let sup = Engine.supervisor engine in
  kill_shard1 engine;
  Alcotest.(check bool) "breaker trips to Poisoned" true
    (Supervisor.await sup 1 Supervisor.Poisoned);
  let h = (Supervisor.health sup).(1) in
  Alcotest.(check int) "one trip" 1 h.Supervisor.breaker_trips;
  Alcotest.(check int) "exactly K failed recoveries" 3 h.Supervisor.failures;
  Alcotest.(check int) "no successful restart" 0 h.Supervisor.restarts;
  (match Engine.arrive engine ~req:"after" ~id:8 ~rate:1 ~path:[ 4; 5 ] () with
  | Error ("unavailable", _) -> ()
  | r -> Alcotest.failf "op at poisoned shard: %s" (reply_to_string r));
  (* No new recovery episode: poisoned means an operator problem, not a
     crash loop. *)
  Alcotest.(check bool) "stays poisoned" true
    (Supervisor.state sup 1 = Supervisor.Poisoned);
  Alcotest.(check bool) "health says unhealthy" true
    (List.assoc "healthy" (Engine.health_fields engine) = Json.Bool false);
  ignore
    (expect_applied "healthy shard serves past the trip"
       (Engine.arrive engine ~req:"a0" ~id:9 ~rate:1 ~path:[ 0; 1 ] ()))

(* A cross arrival touches its home shard alone: it commits while a
   shard its path only crosses is recovering, and is refused
   "unavailable" only while its home shard is down, as a local arrival
   is; each retry then applies once. *)
let test_cross_arrival_with_crossed_shard_down () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sup_cfg =
    Supervisor.config ~backoff:(Backoff.policy ~base:0.3 ~cap:0.5 ()) ()
  in
  let engine = sup_create ~spec:"die@shard.apply:1" ~sup_cfg dir in
  Fun.protect ~finally:(fun () -> Engine.close engine) @@ fun () ->
  let sup = Engine.supervisor engine in
  kill_shard1 engine;
  Alcotest.(check bool) "shard 1 recovering" true
    (Supervisor.state sup 1 = Supervisor.Recovering);
  let check_cross ctx ~home ~dedup reply =
    let json = expect_applied ctx reply in
    Alcotest.(check int) (ctx ^ ": home") home (int_field ctx "shard" json);
    Alcotest.(check bool) (ctx ^ ": tagged cross") true
      (Json.member "cross" json = Some (Json.Bool true));
    Alcotest.(check bool) (ctx ^ ": dedup") dedup
      (Json.member "dedup" json = Some (Json.Bool true))
  in
  (* [0;1;2] is home shard 0 and crosses shard 1; [1;2;3] is the other
     way round. *)
  let crossing () = Engine.arrive engine ~req:"x" ~id:8 ~rate:1 ~path:[ 0; 1; 2 ] () in
  let homed_on_1 () = Engine.arrive engine ~req:"y" ~id:9 ~rate:1 ~path:[ 1; 2; 3 ] () in
  check_cross "commits with shard 1 down" ~home:0 ~dedup:false (crossing ());
  (match homed_on_1 () with
  | Error ("unavailable", _) -> ()
  | r -> Alcotest.failf "cross arrive homed on the down shard: %s" (reply_to_string r));
  Alcotest.(check bool) "recovers" true
    (Supervisor.await sup 1 Supervisor.Serving);
  check_cross "refused arrival retried" ~home:1 ~dedup:false (homed_on_1 ());
  check_cross "committed arrival retried" ~home:0 ~dedup:true (crossing ())

(* The router-reconcile regression the chaos soak caught: a depart that
   was applied and journaled but whose ack died with the leader must
   dedup on retry — reconcile keeping the departed flow's routing entry
   is what steers the retry back to shard 1's recovered dedup table
   instead of the shard-0 fallback (which would refuse it as
   "conflict"). *)
let test_depart_retry_after_lost_ack () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sup_cfg =
    Supervisor.config ~backoff:(Backoff.policy ~base:0.02 ~cap:0.05 ()) ()
  in
  let engine = sup_create ~spec:"die@shard.apply.post:2" ~sup_cfg dir in
  Fun.protect ~finally:(fun () -> Engine.close engine) @@ fun () ->
  let sup = Engine.supervisor engine in
  ignore
    (expect_applied "arrive"
       (Engine.arrive engine ~req:"a" ~id:10 ~rate:1 ~path:[ 3; 4; 5 ] ()));
  (* Second batch at the post-apply point: applied and durable, then the
     leader dies before acking — the canonical lost ack. *)
  (match Engine.depart engine ~req:"d" 10 with
  | Error ("unavailable", _) -> ()
  | r -> Alcotest.failf "lost-ack depart: %s" (reply_to_string r));
  Alcotest.(check bool) "recovers" true
    (Supervisor.await sup 1 Supervisor.Serving);
  let retried = expect_applied "depart retry" (Engine.depart engine ~req:"d" 10) in
  Alcotest.(check bool) "suppressed by the recovered dedup table" true
    (Json.member "dedup" retried = Some (Json.Bool true));
  (* Churned flows: the arrive and its depart cancelled out exactly
     once (the seed flow is static and not counted here). *)
  match List.assoc "flows" (Engine.churn_stats engine) with
  | Json.Int f -> Alcotest.(check int) "flow departed exactly once" 0 f
  | _ -> Alcotest.fail "missing flows in churn stats"

(* degraded_reads: live reads answer from the last applied state flagged
   "degraded": true while a shard is down, and drop the flag once the
   fleet is healthy again.  Writes stay gated regardless. *)
let test_degraded_reads () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sup_cfg =
    Supervisor.config ~backoff:(Backoff.policy ~base:0.2 ~cap:0.3 ()) ()
  in
  let engine =
    sup_create ~spec:"die@shard.apply:1" ~sup_cfg ~degraded_reads:true dir
  in
  Fun.protect ~finally:(fun () -> Engine.close engine) @@ fun () ->
  let sup = Engine.supervisor engine in
  kill_shard1 engine;
  Alcotest.(check bool) "read status degraded" true
    (Engine.read_status engine = Engine.Read_degraded);
  let live =
    expect_applied "degraded live solve"
      (Engine.solve engine ~algo:"gtp" ~k:2 ~seed:1 ~target:P.Live)
  in
  Alcotest.(check bool) "flagged degraded" true
    (Json.member "degraded" live = Some (Json.Bool true));
  (match Engine.arrive engine ~req:"w" ~id:8 ~rate:1 ~path:[ 4; 5 ] () with
  | Error ("unavailable", _) -> ()
  | r -> Alcotest.failf "writes must stay gated when degraded: %s"
           (reply_to_string r));
  Alcotest.(check bool) "recovers" true
    (Supervisor.await sup 1 Supervisor.Serving);
  let live =
    expect_applied "clean live solve"
      (Engine.solve engine ~algo:"gtp" ~k:2 ~seed:1 ~target:P.Live)
  in
  Alcotest.(check bool) "flag dropped once healthy" true
    (Json.member "degraded" live = None)

(* A depart retried with the same req after it applied: the router has
   already forgotten the flow, so the retry must still reach the shard
   whose dedup table holds the req and answer "dedup" from there, as a
   one-shard engine does. *)
let test_retried_depart_dedups () =
  let engine, _ = sharded_engine () in
  Fun.protect ~finally:(fun () -> Engine.close engine) @@ fun () ->
  ignore
    (expect_applied "arrive"
       (Engine.arrive engine ~req:"a" ~id:1 ~rate:2 ~path:[ 7; 8; 9 ] ()));
  let first = expect_applied "depart" (Engine.depart engine ~req:"d" 1) in
  Alcotest.(check int) "depart routed home" 1 (int_field "depart" "shard" first);
  let retry = expect_applied "depart retry" (Engine.depart engine ~req:"d" 1) in
  Alcotest.(check bool) "retry dedups" true
    (Json.member "dedup" retry = Some (Json.Bool true));
  Alcotest.(check int) "answered by the home shard" 1
    (int_field "retry" "shard" retry)

(* ------------------------------------------------------------------ *)
(* Golden bytes and parent-written directories                         *)
(* ------------------------------------------------------------------ *)

(* test/server_golden.txt pins the bytes the serving layer reads and
   writes: the wire envelope parser over a corpus of good and bad
   frames, reply envelopes, every journal record shape, which malformed
   journal records decode, the instance codec, and a scripted durable
   engine at 1 and 4 shards (every reply, its stats, every file it
   leaves on disk, and what recovery answers).  Lines starting
   "fixture " are what the committed directories under
   test/wal_fixtures recover to. *)

let golden_file = "server_golden.txt"
let fixture_root = "wal_fixtures"

let replace_all ~sub ~by s =
  let n = String.length sub and b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let wire_corpus =
  [
    {|{"op":"ping"}|};
    {|{"op":"ping","v":1,"id":7}|};
    {|{"op":"ping","v":2}|};
    {|{"op":"ping","v":"1"}|};
    {|[1,2]|};
    {|"ping"|};
    {|{}|};
    {|{"op":3}|};
    {|{"op":"launch"}|};
    {|{"op":"stats","id":"s"}|};
    {|{"op":"health"}|};
    {|{"op":"shutdown"}|};
    {|{"op":"sleep","ms":5}|};
    {|{"op":"sleep"}|};
    {|{"op":"sleep","ms":"5"}|};
    {|{"op":"sleep","ms":-1}|};
    {|{"op":"solve","algo":"gtp","k":3,"seed":9,"on":"live"}|};
    {|{"op":"solve","algo":"gtp","k":3}|};
    {|{"op":"solve","algo":"gtp","k":3,"on":"static"}|};
    {|{"op":"solve","algo":"gtp","k":3,"on":"both"}|};
    {|{"op":"solve","algo":"gtp","k":3,"on":1}|};
    {|{"op":"solve","algo":"gtp","k":0}|};
    {|{"op":"solve","algo":"gtp"}|};
    {|{"op":"solve","k":2}|};
    {|{"op":"solve","algo":4,"k":2}|};
    {|{"op":"solve","algo":"gtp","k":2,"seed":"x"}|};
    {|{"op":"solve","algo":"gtp","k":0,"deadline_ms":-1}|};
    {|{"op":"arrive","flow":{"id":1,"rate":2,"path":[0,1,2]}}|};
    {|{"op":"arrive","flow":{"id":1,"rate":2,"path":[]}}|};
    {|{"op":"arrive","flow":{"id":1,"rate":0,"path":[0,1]},"req":"r1","deadline_ms":50,"shard_hint":2,"id":[1,"x"]}|};
    {|{"op":"arrive"}|};
    {|{"op":"arrive","flow":5}|};
    {|{"op":"arrive","flow":{"rate":2,"path":[0,1]}}|};
    {|{"op":"arrive","flow":{"id":"1","rate":2,"path":[0,1]}}|};
    {|{"op":"arrive","flow":{"id":1,"path":[0,1]}}|};
    {|{"op":"arrive","flow":{"id":1,"rate":2.5,"path":[0,1]}}|};
    {|{"op":"arrive","flow":{"id":1,"rate":2}}|};
    {|{"op":"arrive","flow":{"id":1,"rate":2,"path":"0,1"}}|};
    {|{"op":"arrive","flow":{"id":1,"rate":2,"path":[0,"1"]}}|};
    {|{"op":"depart","flow_id":4}|};
    {|{"op":"depart"}|};
    {|{"op":"depart","flow_id":"4"}|};
    {|{"op":"depart","flow_id":4,"shard_hint":-1}|};
    {|{"op":"depart","flow_id":4,"shard_hint":"0"}|};
    {|{"op":"rebalance"}|};
    {|{"op":"rebalance","budget":3,"req":"rb"}|};
    {|{"op":"rebalance","budget":-1}|};
    {|{"op":"rebalance","budget":"2"}|};
    {|{"op":"ping","deadline_ms":-5}|};
    {|{"op":"ping","deadline_ms":"5"}|};
    {|{"op":"ping","req":""}|};
    {|{"op":"ping","req":5}|};
  ]

let golden_wire frame =
  match Result.bind (Json.of_string frame) P.request_of_json with
  | Ok env ->
    Printf.sprintf "wire %s -> v%d %s" frame
      (P.version_to_int env.P.version)
      (Json.to_string
         (P.request_to_json ?id:env.P.id ?deadline_ms:env.P.deadline_ms
            ?req:env.P.req ?shard_hint:env.P.shard_hint env.P.request))
  | Error msg -> Printf.sprintf "wire %s -> error %s" frame msg

let golden_replies =
  [
    P.ok [];
    P.ok ~id:(Json.Int 3) [ ("op", Json.String "ping") ];
    P.error ~code:"conflict" "flow 3 is not active";
    P.error ~id:(Json.String "q") ~retry_after_ms:7 ~code:"unavailable"
      "shard restarting";
  ]

let golden_journal_ops =
  [
    Journal.Arrive { id = 7; rate = 2; path = [ 1; 2; 3 ]; req = None };
    Journal.Arrive { id = 7; rate = 2; path = [ 1; 2; 3 ]; req = Some "a-7" };
    Journal.Depart { flow_id = 7; req = None };
    Journal.Depart { flow_id = 7; req = Some "d-7" };
    Journal.Rebalance { budget = 0; req = None };
    Journal.Rebalance { budget = 4; req = Some "rb" };
  ]

let golden_journal op =
  Printf.sprintf "journal %S roundtrip %b" (Journal.encode op)
    (Journal.op_of_json (Journal.op_to_json op) = Ok op)

let journal_records =
  [
    {|{"op":"arrive","id":1,"rate":2,"path":[0,1],"extra":true}|};
    {|{"op":"arrive","id":1,"rate":0,"path":[]}|};
    {|{"op":"arrive","id":-1,"rate":-2,"path":[3,3]}|};
    {|{"op":"arrive","rate":2,"path":[0,1]}|};
    {|{"op":"arrive","id":"1","rate":2,"path":[0,1]}|};
    {|{"op":"arrive","id":1,"path":[0,1]}|};
    {|{"op":"arrive","id":1,"rate":2}|};
    {|{"op":"arrive","id":1,"rate":2,"path":{"0":1}}|};
    {|{"op":"arrive","id":1,"rate":2,"path":[0,1.5]}|};
    {|{"op":"arrive","id":1,"rate":2,"path":[0,1],"req":7}|};
    {|{"op":"arrive","id":1,"rate":2,"path":[0,1],"req":""}|};
    {|{"op":"depart","flow_id":3}|};
    {|{"op":"depart"}|};
    {|{"op":"depart","flow_id":true}|};
    {|{"op":"rebalance","budget":0}|};
    {|{"op":"rebalance","budget":-1}|};
    {|{"op":"rebalance"}|};
    {|{"op":"rebalance","budget":"2"}|};
    {|{"op":"cross-prepare","xid":"x","home":1,"inner":{"op":"depart","flow_id":3}}|};
    {|{"op":"cross-prepare","home":1,"inner":{"op":"depart","flow_id":3}}|};
    {|{"op":"cross-prepare","xid":5,"home":1,"inner":{"op":"depart","flow_id":3}}|};
    {|{"op":"cross-prepare","xid":"x","inner":{"op":"depart","flow_id":3}}|};
    {|{"op":"cross-prepare","xid":"x","home":-4,"inner":{"op":"depart","flow_id":3}}|};
    {|{"op":"cross-prepare","xid":"x","home":1}|};
    {|{"op":"cross-prepare","xid":"x","home":1,"inner":{"op":"depart"}}|};
    {|{"op":"cross-prepare","xid":"x","home":1,"inner":{"op":"rebalance","budget":1}}|};
    {|{"op":"cross-prepare","xid":"x","home":1,"inner":{"op":"cross-done","xid":"y"}}|};
    {|{"op":"cross-done","xid":"x"}|};
    {|{"op":"cross-done"}|};
    {|{"op":"cross-done","xid":1}|};
    {|{"op":"checkpoint"}|};
    {|{"id":1}|};
    {|{"op":1}|};
    {|[1]|};
  ]

let golden_record text =
  Printf.sprintf "record %s -> %s" text
    (match Result.bind (Json.of_string text) Journal.op_of_json with
    | Ok _ -> "accept"
    | Error _ -> "reject")

let instance_corpus =
  [
    {|{"lambda":0.5,"vertices":3,"edges":[[0,1],[1,2]],"flows":[{"id":1,"rate":1,"path":[0,1,2]}]}|};
    {|{"lambda":1,"vertices":3,"undirected":false,"edges":[[0,1],[1,2]],"flows":[{"id":1,"rate":2,"path":[0,1,2]}]}|};
    {|{"lambda":0.25,"vertices":3,"undirected":false,"edges":[[0,1],[1,2]],"flows":[{"id":1,"rate":2,"path":[2,1]}]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,1]],"flows":[]}|};
    {|{"vertices":2,"edges":[[0,1]],"flows":[]}|};
    {|{"lambda":"0.5","vertices":2,"edges":[[0,1]],"flows":[]}|};
    {|{"lambda":1.5,"vertices":2,"edges":[[0,1]],"flows":[]}|};
    {|{"lambda":0.5,"edges":[[0,1]],"flows":[]}|};
    {|{"lambda":0.5,"vertices":"2","edges":[[0,1]],"flows":[]}|};
    {|{"lambda":0.5,"vertices":0,"edges":[],"flows":[]}|};
    {|{"lambda":0.5,"vertices":2,"flows":[]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,0]],"flows":[]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,2]],"flows":[]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,1,1]],"flows":[]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,1],[0,1]],"flows":[]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,1]]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,1]],"flows":[{"rate":1,"path":[0,1]}]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,1]],"flows":[{"id":"1","rate":1,"path":[0,1]}]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,1]],"flows":[{"id":1,"path":[0,1]}]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,1]],"flows":[{"id":1,"rate":1}]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,1]],"flows":[{"id":1,"rate":1,"path":[0,"1"]}]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,1]],"flows":[{"id":1,"rate":0,"path":[0,1]}]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,1]],"flows":[{"id":1,"rate":1,"path":[]}]}|};
    {|{"lambda":0.5,"vertices":3,"edges":[[0,1]],"flows":[{"id":1,"rate":1,"path":[0,2]}]}|};
    {|{"lambda":0.5,"vertices":2,"edges":[[0,1]],"flows":[{"id":1,"rate":1,"path":[0,1]},{"id":1,"rate":1,"path":[1,0]}]}|};
  ]

let golden_instance text =
  Printf.sprintf "instance %s -> %s" text
    (match Result.bind (Json.of_string text) P.instance_of_json with
    | Ok inst -> "ok " ^ Json.to_string (P.instance_to_json inst)
    | Error msg -> "error " ^ msg)

(* The scripted engine: local and cross arrivals (one without a req),
   retries that dedup, refusals of every kind, departs, explicit
   and default-budget rebalances.  On the 24-vertex line the default
   4-shard partition gives shard 0 {0, 1}, shard 1 {2}, shard 2 {3} and
   shard 3 the rest. *)
type gop =
  | Ga of string option * int * int * int list
  | Gd of string option * int
  | Gr of string option * int option
  | Gs

let golden_script =
  [
    Ga (Some "a1", 1, 2, [ 5; 6; 7 ]);
    Ga (Some "a2", 2, 1, [ 0; 1 ]);
    Ga (Some "a3", 3, 3, [ 1; 2; 3 ]);
    Ga (None, 4, 2, [ 10; 11; 12; 13 ]);
    Ga (Some "a1", 1, 2, [ 5; 6; 7 ]);
    Ga (Some "dup", 1, 1, [ 20; 21 ]);
    Ga (Some "bad", 5, 1, [ 7; 9 ]);
    Ga (None, 6, 2, [ 2; 3; 4; 5 ]);
    Gd (Some "d2", 2);
    Gd (Some "d999", 999);
    Gr (Some "r1", None);
    Gr (Some "r2", Some 3);
    Gr (Some "r2", Some 3);
    Gr (None, Some (-1));
    Gs;
    Gd (None, 4);
    Ga (Some "a7", 7, 1, [ 15; 16; 17 ]);
    Ga (Some "a8", 8, 2, [ 0; 1; 2; 3; 4 ]);
  ]

let run_gop engine = function
  | Ga (req, id, rate, path) -> Engine.arrive engine ?req ~id ~rate ~path ()
  | Gd (req, id) -> Engine.depart engine ?req id
  | Gr (req, budget) -> Engine.rebalance engine ?req ?budget ()
  | Gs -> strip_timing (Engine.solve engine ~algo:"gtp" ~k:3 ~seed:5 ~target:P.Live)

let rec dir_files root rel =
  let dir = if rel = "" then root else Filename.concat root rel in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let rel = if rel = "" then name else Filename.concat rel name in
         if Sys.is_directory (Filename.concat root rel) then dir_files root rel
         else [ rel ])

let golden_engine ~shards ~budget =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let tag = Printf.sprintf "engine s%d b%d" shards budget in
  let cfg = Session.durability ~fsync:Journal.Always ~snapshot_every:5 dir in
  let config =
    { (mk_config ~durability:cfg ~churn_k:3 ()) with
      Session.Config.migration_budget = budget }
  in
  let engine = Engine.create ~config ~shards (Engine.General (line_instance 24)) in
  let line fmt = Printf.ksprintf (fun s -> tag ^ " " ^ s) fmt in
  let mask = replace_all ~sub:dir ~by:"DIR" in
  let replies =
    List.mapi
      (fun i op -> line "op %d %s" i (mask (reply_to_string (run_gop engine op))))
      golden_script
  in
  let churn = line "churn %s" (Json.to_string (Json.Obj (Engine.churn_stats engine))) in
  let stats =
    line "stats %s" (mask (Json.to_string (Json.Obj (Engine.stats_fields engine))))
  in
  Engine.close engine;
  let files =
    List.map
      (fun rel -> line "file %s %S" rel (mask (read_all (Filename.concat dir rel))))
      (dir_files dir "")
  in
  let recovered =
    match Engine.recover cfg with
    | Error msg -> [ line "recover error %s" msg ]
    | Ok engine ->
      let churn = Json.to_string (Json.Obj (Engine.churn_stats engine)) in
      let after =
        List.map
          (fun op -> line "recovered %s" (reply_to_string (run_gop engine op)))
          [ Gs; Ga (Some "a8", 8, 2, [ 0; 1; 2; 3; 4 ]); Gd (Some "d1", 1) ]
      in
      Engine.close engine;
      line "recovered churn %s" churn :: after
  in
  replies @ [ churn; stats ] @ files @ recovered

let golden_lines () =
  List.map golden_wire wire_corpus
  @ List.map (fun j -> "reply " ^ Json.to_string j) golden_replies
  @ List.map golden_journal golden_journal_ops
  @ List.map golden_record journal_records
  @ List.map golden_instance instance_corpus
  @ [ "instance-encode " ^ Json.to_string (P.instance_to_json (line_instance 6)) ]
  @ List.concat_map
      (fun (shards, budget) -> golden_engine ~shards ~budget)
      [ (1, 0); (1, 2); (4, 0); (4, 2) ]

(* The committed directories were written by an engine, not by hand
   (apart from the sharded one's coord.wal, see
   [test_in_doubt_cross_arrival]).  Each is recovered from a temporary
   copy, so the fixture stays pristine. *)
(* What [dir], a copy of fixture [name], recovers to. *)
let recovered_lines name dir retry =
  let line fmt = Printf.ksprintf (fun s -> Printf.sprintf "fixture %s %s" name s) fmt in
  match Engine.recover (Session.durability ~fsync:Journal.Always dir) with
  | Error msg -> [ line "recover error %s" msg ]
  | Ok engine ->
    Fun.protect ~finally:(fun () -> Engine.close engine) @@ fun () ->
    let churn = Json.to_string (Json.Obj (Engine.churn_stats engine)) in
    let solve = reply_to_string (run_gop engine Gs) in
    let retry = reply_to_string (run_gop engine retry) in
    [ line "churn %s" churn; line "solve %s" solve; line "retry %s" retry ]

let fixture_lines name retry =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  copy_tree (Filename.concat fixture_root name) dir;
  recovered_lines name dir retry

let flat_retry = Ga (Some "f-a4", 4, 1, [ 9; 10; 11 ])

let fixture_lines_all () =
  fixture_lines "flat" flat_retry
  @ fixture_lines "sharded" (Ga (Some "s-a4", 4, 1, [ 8; 9; 10 ]))

(* test/wal_fixtures/sharded comes from a build that also journaled each
   cross-shard arrival in a coordinator journal and answered its client
   only once the arrival was retired there.  Its coord.wal holds one
   unretired arrival, s-x5 (flow 5, home shard 1), that no shard journal
   has: a client that was never answered.  Recovery drops the file
   unread, so flow 5 is absent until the client retries; the retry
   applies it once on shard 1, and the engine then answers what that
   build recovered the directory to.  A recovery that fails leaves the
   file. *)
let earlier_build_churn =
  {|{"flows":4,"placement":[0,1,2,8],"bandwidth":5.5,"feasible":true,"moves":6,"arrivals":5,"departures":1,"rebalances":4,"rebalance_moves":0}|}

let earlier_build_solve =
  {|{"algo":"gtp","k":3,"seed":5,"on":"live","placement":[1,2,8],"bandwidth":6.0,"feasible":true}|}

let test_in_doubt_cross_arrival () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  copy_tree (Filename.concat fixture_root "sharded") dir;
  let cfg = Session.durability ~fsync:Journal.Always dir in
  let snapshot = Filename.concat (shard_root dir 2) "snapshot.json" in
  let intact = read_all snapshot in
  write_all snapshot "{";
  expect_recover_error "cut shard-2 snapshot" cfg "shard 2: expected '\"' at offset 1";
  Alcotest.(check bool) "a failed recovery keeps coord.wal" true
    (Sys.file_exists (Filename.concat dir "coord.wal"));
  write_all snapshot intact;
  match Engine.recover cfg with
  | Error msg -> Alcotest.failf "recover: %s" msg
  | Ok engine ->
    Fun.protect ~finally:(fun () -> Engine.close engine) @@ fun () ->
    Alcotest.(check (list string)) "coord.wal removed"
      [ "shard-0"; "shard-1"; "shard-2"; "shard-3" ]
      (root_entries dir);
    let flows () =
      match List.assoc "flows" (Engine.churn_stats engine) with
      | Json.Int f -> f
      | _ -> Alcotest.fail "missing flows in churn stats"
    in
    Alcotest.(check int) "the unanswered arrival is not applied" 3 (flows ());
    let retry () =
      expect_applied "s-x5 retry"
        (Engine.arrive engine ~req:"s-x5" ~id:5 ~rate:1 ~path:[ 2; 3; 4 ] ())
    in
    let first = retry () in
    Alcotest.(check int) "applied on shard 1" 1 (int_field "retry" "shard" first);
    Alcotest.(check bool) "tagged cross" true
      (Json.member "cross" first = Some (Json.Bool true));
    Alcotest.(check bool) "applied, not deduplicated" true
      (Json.member "dedup" first = None);
    Alcotest.(check string) "churn as the earlier build recovered it"
      earlier_build_churn
      (Json.to_string (Json.Obj (Engine.churn_stats engine)));
    Alcotest.(check string) "live solve as the earlier build recovered it"
      earlier_build_solve
      (reply_to_string (run_gop engine Gs));
    Alcotest.(check bool) "a second retry dedups" true
      (Json.member "dedup" (retry ()) = Some (Json.Bool true))

let is_fixture_line = String.starts_with ~prefix:"fixture "

let check_golden expected actual =
  Alcotest.(check int) "golden line count" (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) -> Alcotest.(check string) (Printf.sprintf "golden line %d" (i + 1)) e a)
    (List.combine expected actual)

let test_golden_bytes () =
  check_golden
    (List.filter (fun l -> not (is_fixture_line l)) (Test_registry.read_lines golden_file))
    (golden_lines ())

let test_fixtures_recover () =
  check_golden
    (List.filter is_fixture_line (Test_registry.read_lines golden_file))
    (fixture_lines_all ())

(* The one-time move of a flat root into [shard-0/], from the flat
   fixture cut at each step of it: the journal segments moved but not
   the snapshot, an empty [shard-0/], a leftover snapshot temp file.
   Each recovers to the golden fixture lines and leaves only [shard-0/]
   in the root; a second recovery moves nothing. *)
let test_flat_root_moves_once () =
  let golden =
    List.filter
      (String.starts_with ~prefix:"fixture flat ")
      (Test_registry.read_lines golden_file)
  in
  let segments_moved dir =
    Unix.mkdir (shard_root dir 0) 0o755;
    List.iter
      (fun name ->
        if Filename.check_suffix name ".wal" then
          Sys.rename (Filename.concat dir name) (Filename.concat (shard_root dir 0) name))
      (root_entries dir)
  in
  List.iter
    (fun (cut, at) ->
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      copy_tree (Filename.concat fixture_root "flat") dir;
      cut dir;
      Alcotest.(check (list string))
        (at ^ ": golden lines") golden
        (recovered_lines "flat" dir flat_retry);
      Alcotest.(check (list string))
        (at ^ ": root after the move") [ "shard-0" ] (root_entries dir);
      let shard0 = List.map (fun f -> (f, read_all (Filename.concat (shard_root dir 0) f))) in
      let before = shard0 (root_entries (shard_root dir 0)) in
      (match Engine.recover (Session.durability ~fsync:Journal.Always dir) with
      | Error msg -> Alcotest.failf "%s: second recovery: %s" at msg
      | Ok engine ->
        Alcotest.(check string)
          (at ^ ": second recovery, same churn")
          (List.hd golden)
          ("fixture flat churn " ^ Json.to_string (Json.Obj (Engine.churn_stats engine)));
        Alcotest.(check (list string))
          (at ^ ": second recovery moves nothing") [ "shard-0" ] (root_entries dir);
        Alcotest.(check (list (pair string string)))
          (at ^ ": shard-0 untouched by the second recovery") before
          (shard0 (root_entries (shard_root dir 0)));
        Engine.close engine))
    [
      (segments_moved, "segments moved, snapshot not");
      ((fun dir -> Unix.mkdir (shard_root dir 0) 0o755), "empty shard-0/");
      ( (fun dir -> write_all (Filename.concat dir "snapshot.json.tmp") "{\"format\""),
        "leftover snapshot.json.tmp" );
    ]

(* What the move refuses: a root holding neither layout answers an
   [Error] naming it; a root holding both a flat snapshot and
   [shard-0/snapshot.json] is refused with both files untouched; and a
   fresh engine never starts beside a flat snapshot. *)
let test_flat_root_refusals () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = Session.durability ~fsync:Journal.Always dir in
  let no_state =
    Printf.sprintf "%s holds no engine state: neither shard-0/ nor snapshot.json" dir
  in
  expect_recover_error "missing root" cfg no_state;
  Unix.mkdir dir 0o755;
  expect_recover_error "empty root" cfg no_state;
  Alcotest.(check (list string)) "empty root left empty" [] (root_entries dir);
  Unix.rmdir dir;
  let flat = Filename.concat fixture_root "flat" in
  copy_tree flat dir;
  copy_tree flat (shard_root dir 0);
  let snapshots () =
    List.map read_all
      [ Filename.concat dir "snapshot.json"; Filename.concat (shard_root dir 0) "snapshot.json" ]
  in
  let both = snapshots () in
  expect_recover_error "both layouts" cfg
    (Printf.sprintf
       "%s holds both a flat snapshot.json and shard-0/snapshot.json; refusing to \
        overwrite either"
       dir);
  Alcotest.(check (list string)) "neither snapshot overwritten" both (snapshots ());
  rm_rf (shard_root dir 0);
  Alcotest.check_raises "create beside a flat snapshot"
    (Sys_error
       (Printf.sprintf
          "%s already holds a snapshot — recover from it instead of starting fresh" dir))
    (fun () ->
      ignore
        (Engine.create ~config:(mk_config ~durability:cfg ()) (Engine.General (line_instance 12))));
  Alcotest.(check (list string))
    "create leaves the flat root as it was"
    [ "journal-1.wal"; "snapshot.json" ]
    (root_entries dir)

(* A durable tree engine keeps its tree view across recovery: at 1 and
   4 shards the static tree solvers answer the same before and after,
   and so does dp-binary's refusal of a non-binary tree. *)
let test_tree_engine_recovers () =
  let tree_inst = Sc.build_tree (Rng.create 1) Sc.default_tree in
  let answers engine =
    List.map
      (fun algo ->
        reply_to_string
          (strip_timing (Engine.solve engine ~algo ~k:4 ~seed:1 ~target:P.Static)))
      [ "dp"; "hat"; "scaled-dp"; "dp-binary" ]
  in
  List.iter
    (fun shards ->
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let cfg = Session.durability ~fsync:Journal.Always dir in
      let engine =
        Engine.create ~config:(mk_config ~durability:cfg ()) ~shards (Engine.Tree tree_inst)
      in
      let before = answers engine in
      Engine.close engine;
      List.iteri
        (fun i reply ->
          Alcotest.(check bool)
            (Printf.sprintf "%d shards: answer %d before recovery" shards i)
            (i < 3)
            (not (String.starts_with ~prefix:"error" reply)))
        before;
      match Engine.recover cfg with
      | Error msg -> Alcotest.failf "%d shards: recover: %s" shards msg
      | Ok engine ->
        Fun.protect ~finally:(fun () -> Engine.close engine) @@ fun () ->
        Alcotest.(check (list string))
          (Printf.sprintf "%d shards: same answers after recovery" shards)
          before (answers engine))
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "config: defaults and deterministic construction" `Quick
      test_config_aliases;
    Alcotest.test_case "one shard: bit-identical to the session" `Quick
      test_one_shard_bit_identical;
    Alcotest.test_case "sharded: path-ownership routing" `Quick
      test_sharded_routing;
    Alcotest.test_case "sharded: group commit under concurrency" `Quick
      test_group_commit_concurrent;
    Alcotest.test_case "sharded: a cross arrival journals on its home shard alone" `Quick
      test_cross_arrival_home_journal;
    Alcotest.test_case "sharded: crash matrix" `Quick test_sharded_crash_matrix;
    QCheck_alcotest.to_alcotest prop_recovery_order_free;
    Alcotest.test_case "recover: a failure leaves nothing open" `Quick
      test_failed_recover_releases;
    Alcotest.test_case "recover: the lowest failing shard's error" `Quick
      test_lowest_failing_shard;
    Alcotest.test_case "protocol: versioned envelope" `Quick
      test_envelope_versioning;
    Alcotest.test_case "client: retry budget exhausts" `Quick
      test_client_retry_budget_exhausted;
    Alcotest.test_case "client: honors retry_after_ms" `Quick
      test_client_retry_honors_hint;
    Alcotest.test_case "supervised: degradation arc" `Quick
      test_supervised_degradation_arc;
    Alcotest.test_case "supervised: breaker trips to poisoned" `Quick
      test_breaker_trips_to_poisoned;
    Alcotest.test_case "supervised: a cross arrival commits with a crossed shard down"
      `Quick test_cross_arrival_with_crossed_shard_down;
    Alcotest.test_case "supervised: lost-ack depart retry dedups" `Quick
      test_depart_retry_after_lost_ack;
    Alcotest.test_case "supervised: degraded reads" `Quick test_degraded_reads;
    Alcotest.test_case "sharded: retried depart dedups at its home shard" `Quick
      test_retried_depart_dedups;
    Alcotest.test_case "server: golden bytes" `Quick test_golden_bytes;
    Alcotest.test_case "server: parent-written directories recover" `Quick
      test_fixtures_recover;
    Alcotest.test_case "recover: an in-doubt cross arrival applies on its retry"
      `Quick test_in_doubt_cross_arrival;
    Alcotest.test_case "durable tree: tree solvers survive recovery" `Quick
      test_tree_engine_recovers;
    Alcotest.test_case "recover: a flat root moves into shard-0 once" `Quick
      test_flat_root_moves_once;
    Alcotest.test_case "recover: flat-root refusals" `Quick test_flat_root_refusals;
  ]
