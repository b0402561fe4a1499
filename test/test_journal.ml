(* Durability: CRC32 vectors, backoff schedules, the journal codec and
   its corruption/torn-tail detection, deterministic fault plans, and —
   the property the whole subsystem exists for — crash-recovery that is
   bit-identical and exactly-once at every named crash point. *)

module Json = Tdmd_obs.Json
module Crc32 = Tdmd_prelude.Crc32
module Backoff = Tdmd_prelude.Backoff
module Journal = Tdmd_server.Journal
module Faults = Tdmd_server.Faults
module Session = Tdmd_server.Session
module P = Tdmd_server.Protocol

(* One churn op through [Session.apply_batch], the session's one churn
   entry point (the engine's shards reach it the same way). *)
let apply_one session op =
  match Session.apply_batch session [ op ] with
  | [ reply ] -> reply
  | _ -> Alcotest.fail "apply_batch: one reply per op"

let arrive session ?req ~id ~rate ~path () =
  apply_one session (Journal.Arrive { id; rate; path; req })

let depart session ?req flow_id = apply_one session (Journal.Depart { flow_id; req })

let session_of_general ?durability ?dedup_cap ~churn_k inst =
  Session.create
    ~config:
      {
        Session.Config.churn_k = churn_k;
        Session.Config.migration_budget = 0;
        Session.Config.dedup_cap =
          Option.value dedup_cap ~default:Session.default_dedup_cap;
        Session.Config.durability = durability;
      }
    inst

(* ------------------------------------------------------------------ *)
(* CRC32                                                               *)
(* ------------------------------------------------------------------ *)

let test_crc32_vectors () =
  (* The IEEE 802.3 check value, and friends. *)
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "a" 0xE8B7BE43 (Crc32.string "a");
  Alcotest.(check int) "abc" 0x352441C2 (Crc32.string "abc")

let test_crc32_incremental () =
  let whole = Crc32.string "hello, journal" in
  let part = Crc32.string ~crc:(Crc32.string "hello, ") "journal" in
  Alcotest.(check int) "chunked = one-shot" whole part;
  let b = Bytes.of_string "xxhello, journalyy" in
  Alcotest.(check int) "windowed"
    whole
    (Crc32.bytes ~pos:2 ~len:(Bytes.length b - 4) b)

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)
(* ------------------------------------------------------------------ *)

let drain b =
  let rec go acc = match Backoff.next b with
    | Some d -> go (d :: acc)
    | None -> List.rev acc
  in
  go []

let test_backoff_deterministic () =
  let p = Backoff.policy ~base:0.01 ~cap:0.2 ~max_attempts:12 () in
  let a = drain (Backoff.start ~seed:7 p) in
  let b = drain (Backoff.start ~seed:7 p) in
  let c = drain (Backoff.start ~seed:8 p) in
  Alcotest.(check (list (float 0.0))) "same seed, same schedule" a b;
  Alcotest.(check bool) "different seed, different schedule" true (a <> c);
  Alcotest.(check int) "max_attempts delays" 12 (List.length a);
  List.iteri
    (fun i d ->
      if d < p.Backoff.base -. 1e-12 || d > p.Backoff.cap +. 1e-12 then
        Alcotest.failf "delay %d = %g outside [base, cap]" i d)
    a;
  Alcotest.(check (float 1e-12)) "first delay is base" p.Backoff.base
    (List.hd a)

let test_backoff_budget () =
  let p = Backoff.policy ~base:0.01 ~cap:10.0 ~budget:0.5 () in
  let b = Backoff.start ~seed:3 p in
  let delays = drain b in
  let total = List.fold_left ( +. ) 0.0 delays in
  Alcotest.(check bool) "stops" true (List.length delays < 1000);
  if total > 0.5 +. 1e-9 then
    Alcotest.failf "planned sleep %g exceeds budget" total;
  Alcotest.(check (float 1e-9)) "elapsed = sum of delays" total
    (Backoff.elapsed b)

(* ------------------------------------------------------------------ *)
(* Journal record codec                                                *)
(* ------------------------------------------------------------------ *)

let op_gen =
  let open QCheck.Gen in
  let req = oneof [ return None; map (fun n -> Some (Printf.sprintf "req-%d" n)) (int_bound 9999) ] in
  oneof
    [
      (let* id = int_bound 100000 in
       let* rate = int_range 1 1000 in
       let* len = int_range 1 8 in
       let* path = list_repeat len (int_bound 63) in
       let* req = req in
       return (Journal.Arrive { id; rate; path; req }));
      (let* flow_id = int_bound 100000 in
       let* req = req in
       return (Journal.Depart { flow_id; req }));
      (let* budget = int_bound 100000 in
       let* req = req in
       return (Journal.Rebalance { budget; req }));
    ]

let op_print op = Json.to_string (Journal.op_to_json op)

let prop_op_roundtrip =
  QCheck.Test.make ~count:300 ~name:"journal op: encode . decode = id"
    (QCheck.make ~print:op_print op_gen)
    (fun op ->
      match Json.of_string (Json.to_string (Journal.op_to_json op)) with
      | Error _ -> false
      | Ok json -> (
        match Journal.op_of_json json with
        | Ok op' -> op = op'
        | Error _ -> false))

(* Write [ops] through the real writer into a temp file, return its
   path and raw contents. *)
let journal_on_disk ops =
  let path = Filename.temp_file "tdmd-wal" ".wal" in
  Sys.remove path;
  let j, replayed = Journal.open_append ~fsync:Journal.Never path in
  Alcotest.(check int) "fresh journal is empty" 0 (List.length replayed);
  List.iter (Journal.append j) ops;
  Journal.close j;
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (path, data)

let sample_ops =
  [
    Journal.Arrive { id = 1; rate = 3; path = [ 0; 1; 2 ]; req = Some "a" };
    Journal.Depart { flow_id = 1; req = None };
    Journal.Arrive { id = 2; rate = 1; path = [ 4; 3 ]; req = None };
    Journal.Arrive { id = 77; rate = 9; path = [ 5; 4; 3; 2; 1 ]; req = Some "b" };
    Journal.Depart { flow_id = 77; req = Some "c" };
    Journal.Rebalance { budget = 4; req = Some "d" };
  ]

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let firstn n xs = List.filteri (fun i _ -> i < n) xs

(* Which record does byte [i] of the file belong to? *)
let record_of_byte ops i =
  let rec go idx off = function
    | [] -> idx
    | op :: rest ->
      let len = String.length (Journal.encode op) in
      if i < off + len then idx else go (idx + 1) (off + len) rest
  in
  go 0 0 ops

let test_single_byte_flip () =
  let path, data = journal_on_disk sample_ops in
  let n = String.length data in
  for i = 0 to n - 1 do
    let corrupted = Bytes.of_string data in
    Bytes.set_uint8 corrupted i (Bytes.get_uint8 corrupted i lxor 0x40);
    write_file path (Bytes.to_string corrupted);
    let hit = record_of_byte sample_ops i in
    match Journal.replay path with
    | Error msg -> Alcotest.failf "flip at %d: replay refused the file: %s" i msg
    | Ok (ops, torn) ->
      (* The record containing the flip must not survive; everything
         before it must.  (A flipped length byte may also swallow later
         records — a *longer* prefix than [hit] is the one impossible
         outcome.) *)
      if List.length ops > hit then
        Alcotest.failf "flip at byte %d (record %d) yielded %d records" i hit
          (List.length ops);
      if List.length ops = hit && torn = 0 then
        Alcotest.failf "flip at byte %d: no torn bytes reported" i;
      if ops <> firstn (List.length ops) sample_ops then
        Alcotest.failf "flip at byte %d: surviving prefix differs" i
  done;
  Sys.remove path

let test_torn_tail_every_offset () =
  let path, data = journal_on_disk sample_ops in
  let boundaries =
    (* Cumulative record end offsets. *)
    List.rev
      (fst
         (List.fold_left
            (fun (acc, off) op ->
              let off = off + String.length (Journal.encode op) in
              (off :: acc, off))
            ([ 0 ], 0) sample_ops))
  in
  Alcotest.(check int) "sizes add up" (String.length data)
    (List.fold_left max 0 boundaries);
  let n = String.length data in
  for cut = 0 to n do
    write_file path (String.sub data 0 cut);
    let complete = List.length (List.filter (fun b -> b <= cut) boundaries) - 1 in
    (match Journal.replay path with
    | Error msg -> Alcotest.failf "cut at %d: replay refused: %s" cut msg
    | Ok (ops, torn) ->
      Alcotest.(check int)
        (Printf.sprintf "cut at %d: records" cut)
        complete (List.length ops);
      if ops <> firstn complete sample_ops then
        Alcotest.failf "cut at %d: prefix differs" cut;
      Alcotest.(check int)
        (Printf.sprintf "cut at %d: torn bytes" cut)
        (cut - List.nth boundaries complete)
        torn);
    (* The writer must also accept the torn file: truncate and go on. *)
    let tel = Tdmd_obs.Telemetry.create () in
    let j, replayed = Journal.open_append ~tel ~fsync:Journal.Never path in
    Alcotest.(check int)
      (Printf.sprintf "cut at %d: open_append replays" cut)
      complete (List.length replayed);
    Journal.append j (Journal.Depart { flow_id = 999; req = None });
    Journal.close j;
    (match Journal.replay path with
    | Ok (ops, 0) ->
      Alcotest.(check int)
        (Printf.sprintf "cut at %d: append after truncation" cut)
        (complete + 1) (List.length ops)
    | Ok (_, torn) -> Alcotest.failf "cut at %d: %d torn bytes survive" cut torn
    | Error msg -> Alcotest.failf "cut at %d: %s" cut msg)
  done;
  Sys.remove path

(* A write failure mid-record (ENOSPC, media error) must not leave the
   fd offset after the half-written garbage: later acked appends have
   to stay readable on replay.  short@wal.write:3 clamps the failing
   record's first pass (op 1's single pass consumes hits 1-2), then the
   EIO on its second pass aborts the append with a partial record on
   disk — which append must truncate away before rethrowing.
   (wal.write hit counts: each append fires mangle + per-pass clamp and
   eintr, so op 1 consumes 1-3 and op 2's first-pass clamp is hit 5;
   wal.write.fail counts per pass only: op 1 is 1, op 2's passes are
   2 and 3.) *)
let test_append_failure_restores_tail () =
  let path = Filename.temp_file "tdmd-wal" ".wal" in
  Sys.remove path;
  let faults =
    match Faults.of_spec "short@wal.write:5;fail@wal.write.fail:3;seed=5" with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let tel = Tdmd_obs.Telemetry.create () in
  let j, _ = Journal.open_append ~faults ~tel ~fsync:Journal.Never path in
  let op1 = List.nth sample_ops 0
  and op2 = List.nth sample_ops 3
  and op3 = List.nth sample_ops 4 in
  Journal.append j op1;
  (match Journal.append j op2 with
  | () -> Alcotest.fail "append through an EIO fault must raise"
  | exception Unix.Unix_error (Unix.EIO, _, _) -> ());
  Alcotest.(check bool) "invariant restored, not poisoned" false
    (Journal.poisoned j);
  Alcotest.(check int) "failure counted" 1
    (Tdmd_obs.Telemetry.get_count tel "wal_append_failures");
  Journal.append j op3;
  Journal.close j;
  (match Journal.replay path with
  | Ok (ops, 0) ->
    if ops <> [ op1; op3 ] then
      Alcotest.fail "surviving records are not exactly the acked appends"
  | Ok (_, torn) ->
    Alcotest.failf "%d bytes of half-written record survived" torn
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* Write-side and replay-side record limits must agree: an op the
   journal accepts (and the server acks) can never decode as corruption
   later.  Oversized ops are refused before any byte reaches the disk. *)
let test_oversized_record_rejected () =
  let big =
    Journal.Arrive
      { id = 1; rate = 1; path = List.init 300_000 (fun i -> i); req = None }
  in
  (match Journal.encode big with
  | _ -> Alcotest.fail "encode must refuse payloads above max_record"
  | exception Invalid_argument _ -> ());
  let path = Filename.temp_file "tdmd-wal" ".wal" in
  Sys.remove path;
  let j, _ = Journal.open_append ~fsync:Journal.Never path in
  let op1 = List.hd sample_ops in
  Journal.append j op1;
  (match Journal.append j big with
  | () -> Alcotest.fail "append must refuse payloads above max_record"
  | exception Invalid_argument _ -> ());
  let op3 = List.nth sample_ops 1 in
  Journal.append j op3;
  Journal.close j;
  (match Journal.replay path with
  | Ok (ops, 0) when ops = [ op1; op3 ] -> ()
  | Ok (ops, torn) ->
    Alcotest.failf "replay: %d records, %d torn bytes" (List.length ops) torn
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let test_fsync_policy_strings () =
  List.iter
    (fun (s, p) ->
      (match Journal.fsync_policy_of_string s with
      | Ok q when q = p -> ()
      | Ok _ -> Alcotest.failf "%s parsed wrong" s
      | Error msg -> Alcotest.failf "%s: %s" s msg);
      Alcotest.(check string) "roundtrip" s (Journal.fsync_policy_to_string p))
    [ ("always", Journal.Always); ("none", Journal.Never);
      ("every-16", Journal.Every_n 16) ];
  (match Journal.fsync_policy_of_string "every-0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "every-0 must be rejected");
  match Journal.fsync_policy_of_string "sometimes" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad policy must be rejected"

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let test_fault_spec () =
  (match Faults.of_spec "" with
  | Ok t -> Alcotest.(check bool) "empty spec is inert" false (Faults.enabled t)
  | Error msg -> Alcotest.fail msg);
  (match Faults.of_spec "crash@wal.append.post_write:3;seed=7" with
  | Ok t -> Alcotest.(check bool) "enabled" true (Faults.enabled t)
  | Error msg -> Alcotest.fail msg);
  (match Faults.of_spec "fail@wal.write.fail:2" with
  | Ok t -> Alcotest.(check bool) "fail kind parses" true (Faults.enabled t)
  | Error msg -> Alcotest.fail msg);
  (match Faults.of_spec "explode@somewhere" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind must be rejected");
  match Faults.of_spec "crash@" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty point must be rejected"

(* The PR 9 grammar extensions: probabilistic [:p=] triggers and the
   [die]/[delay] kinds, plus the conflict checks that keep a plan
   deterministic. *)
let test_fault_spec_extended () =
  let ok name spec =
    match Faults.of_spec spec with
    | Ok t -> Alcotest.(check bool) name true (Faults.enabled t)
    | Error msg -> Alcotest.failf "%s: %s" name msg
  in
  let contains msg needle =
    let n = String.length msg and m = String.length needle in
    let rec go i = i + m <= n && (String.sub msg i m = needle || go (i + 1)) in
    go 0
  in
  let refused name spec needle =
    match Faults.of_spec spec with
    | Error msg ->
      if not (contains msg needle) then
        Alcotest.failf "%s: error %S does not mention %S" name msg needle
    | Ok _ -> Alcotest.failf "%s: %S must be rejected" name spec
  in
  ok "die kind" "die@shard.apply:1";
  ok "delay kind" "delay@shard.apply:p=0.5";
  ok "p=1 is a valid probability" "die@p:p=1";
  ok "trigger defaults to :1" "delay@p";
  refused "p=0" "die@p:p=0" "probability";
  refused "p>1" "die@p:p=1.5" "probability";
  refused "malformed trigger" "die@p:often" "trigger";
  (* Conflicts: a plan where two raising kinds could fire on the same
     pass of one point is ambiguous, not deterministic. *)
  refused "exact duplicate" "die@p:2;die@p:2" "duplicate";
  refused "two raising kinds, same nth" "crash@p:2;die@p:2" "conflicting";
  refused "raising prob coincides with raising nth" "crash@p:p=0.5;die@p:7"
    "conflicting";
  (* Non-raising kinds coexist freely, with each other and with one
     raising kind; distinct points never conflict. *)
  ok "non-raising pair at one point" "short@p:2;eintr@p:2";
  ok "delay beside a raising kind" "delay@p:p=0.5;die@p:p=0.5";
  ok "raising kinds at distinct points" "die@p:1;die@q:1"

(* Round-trip: [of_spec . to_spec = id] over the full grammar.  Points
   are made distinct by index so generated plans never trip the
   conflict check — conflicts are covered deterministically above. *)
let fault_spec_gen =
  let open QCheck.Gen in
  let kind =
    oneofl [ "crash"; "eintr"; "short"; "corrupt"; "fail"; "die"; "delay" ]
  in
  let trigger =
    oneof
      [
        map (Printf.sprintf ":%d") (int_range 1 99);
        map (Printf.sprintf ":p=%.17g") (float_range 1e-6 1.0);
      ]
  in
  let* n = int_range 1 5 in
  let* kinds = list_repeat n kind in
  let* triggers = list_repeat n trigger in
  let* seed = int_bound 9999 in
  let directives =
    List.mapi
      (fun i (k, trig) -> Printf.sprintf "%s@pt%d%s" k i trig)
      (List.combine kinds triggers)
  in
  let parts =
    if seed = 0 then directives
    else directives @ [ Printf.sprintf "seed=%d" seed ]
  in
  return (String.concat ";" parts)

let prop_fault_spec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"fault spec: of_spec . to_spec = id"
    (QCheck.make ~print:Fun.id fault_spec_gen)
    (fun spec ->
      match Faults.of_spec spec with
      | Error _ -> false
      | Ok t -> (
        Faults.to_spec t = spec
        &&
        match Faults.of_spec (Faults.to_spec t) with
        | Ok t' -> Faults.to_spec t' = spec
        | Error _ -> false))

let test_fault_crash_fires_at_nth () =
  let t =
    match Faults.of_spec "crash@p:3" with Ok t -> t | Error m -> Alcotest.fail m
  in
  Faults.hit t "p";
  Faults.hit t "p";
  (match Faults.hit t "p" with
  | () -> Alcotest.fail "third hit must crash"
  | exception Faults.Crash point -> Alcotest.(check string) "point" "p" point);
  (* Consumed: later hits pass. *)
  Faults.hit t "p";
  Alcotest.(check (list (pair string int))) "hit counts" [ ("p", 4) ]
    (Faults.hits t)

(* ------------------------------------------------------------------ *)
(* EINTR / short I/O on the frame path                                 *)
(* ------------------------------------------------------------------ *)

let test_frame_io_under_faults () =
  let faults =
    match
      Faults.of_spec
        "eintr@sock.write;short@sock.write:2;short@sock.write:3;\
         eintr@sock.read;short@sock.read:2;short@sock.read:4;seed=11"
    with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
      let msg =
        Json.Obj
          [ ("op", Json.String "arrive");
            ("path", Json.List (List.init 40 (fun i -> Json.Int i)));
            ("note", Json.String (String.make 300 'x')) ]
      in
      P.write_frame ~faults a msg;
      match P.read_frame ~faults b with
      | Ok got ->
        Alcotest.(check string) "frame survives EINTR + short I/O"
          (Json.to_string msg) (Json.to_string got)
      | Error `Eof -> Alcotest.fail "eof"
      | Error (`Bad m) -> Alcotest.fail m)

(* ------------------------------------------------------------------ *)
(* Crash-recovery property                                             *)
(* ------------------------------------------------------------------ *)

let tiny_instance () =
  let g = Tdmd_graph.Digraph.create 6 in
  List.iter
    (fun (u, v) -> Tdmd_graph.Digraph.add_undirected g u v)
    [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ];
  Tdmd.Instance.make ~graph:g
    ~flows:[ Tdmd_flow.Flow.make ~id:1000 ~rate:2 ~path:[ 0; 1; 2; 3 ] ]
    ~lambda:0.5

type wop = A of int * int * int list | D of int | DU of int | R of int

let workload =
  [
    A (1, 2, [ 0; 1; 2; 3 ]);
    A (2, 4, [ 5; 4; 3 ]);
    A (3, 1, [ 2; 3; 4 ]);
    D 2;
    A (4, 3, [ 1; 2; 3; 4; 5 ]);
    DU 9999;  (* unknown id: refused as a conflict, never journaled *)
    R 3;  (* journaled with its resolved budget; replay re-runs it *)
    A (5, 2, [ 3; 2; 1 ]);
    D 1;
    R 2;
  ]

let apply_wop session i wop =
  let req = Printf.sprintf "req-%d" i in
  match wop with
  | A (id, rate, path) -> arrive session ~req ~id ~rate ~path ()
  | D id | DU id -> depart session ~req id
  | R budget -> apply_one session (Journal.Rebalance { budget; req = Some req })

let expect_applied ctx = function
  | Ok _ -> ()
  | Error (code, msg) -> Alcotest.failf "%s: %s %s" ctx code msg

(* [DU] ops flip the expectation: an unknown depart is refused
   ("conflict") before the journal sees it, identically on every run
   and replay. *)
let expect_wop ctx wop reply =
  match (wop, reply) with
  | DU _, Error ("conflict", _) -> ()
  | DU _, Ok _ -> Alcotest.failf "%s: unknown depart was accepted" ctx
  | _, reply -> expect_applied ctx reply

(* The externally observable state: churn summary + a live solve with a
   seeded algorithm.  Bit-identical recovery means this string matches. *)
let fingerprint session =
  let churn = Json.to_string (Json.Obj (Session.churn_stats session)) in
  let solve =
    let general = Session.general session in
    match
      Session.solve_on_instance ~algo:"gtp" ~k:2 ~seed:5 ~target:P.Live
        (Tdmd.Instance.make ~graph:general.Tdmd.Instance.graph
           ~flows:(Session.live_flows session) ~lambda:general.Tdmd.Instance.lambda)
    with
    | Ok (Json.Obj fields) ->
      (* Everything except wall-clock timing ("telemetry" carries
         oracle_ns/dur_ns, nondeterministic by nature). *)
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> k <> "telemetry") fields))
    | Ok json -> Json.to_string json
    | Error (code, msg) -> Printf.sprintf "error %s: %s" code msg
  in
  churn ^ "|" ^ solve

let temp_dir () =
  let path = Filename.temp_file "tdmd-dur" "" in
  Sys.remove path;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let reference_fingerprint =
  lazy
    (let session = session_of_general ~churn_k:2 (tiny_instance ()) in
     List.iteri
       (fun i wop -> expect_wop "reference" wop (apply_wop session i wop))
       workload;
     fingerprint session)

(* Drive the workload against a durable session that crashes at the
   [nth] pass of [point]; recover; retry the crashed op with the same
   req id; finish the workload.  The final state must match the
   uninterrupted run and no op may be applied twice. *)
let crash_and_recover ~point ~nth ~snapshot_every =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let faults =
    match Faults.of_spec (Printf.sprintf "crash@%s:%d" point nth) with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let cfg = Session.durability ~snapshot_every ~faults dir in
  (* On Crash, abandon the session without closing — the in-process
     stand-in for the process dying.  (Re-opening in the same process
     works because POSIX record locks do not conflict within one
     process.) *)
  (match session_of_general ~durability:cfg ~churn_k:2 (tiny_instance ()) with
  | exception Faults.Crash _ -> ()
  | session -> (
    try
      List.iteri
        (fun i wop ->
          expect_wop (Printf.sprintf "%s op %d" point i) wop
            (apply_wop session i wop))
        workload
    with Faults.Crash _ -> ()));
  (* Recover, then replay the whole workload with the same req ids —
     already-applied ops dedup, missing ones apply.  This IS the client
     retry protocol, so it must converge to the uninterrupted state. *)
  let clean = Session.durability ~snapshot_every dir in
  match Session.recover clean with
  | Error msg -> Alcotest.failf "%s:%d: recover failed: %s" point nth msg
  | Ok recovered ->
    List.iteri
      (fun i wop ->
        expect_wop
          (Printf.sprintf "%s:%d replay op %d" point nth i)
          wop
          (apply_wop recovered i wop))
      workload;
    let got = fingerprint recovered in
    Session.close recovered;
    if got <> Lazy.force reference_fingerprint then
      Alcotest.failf "%s:%d: recovered state differs\nref: %s\ngot: %s" point
        nth
        (Lazy.force reference_fingerprint)
        got

let crash_matrix =
  [
    ("wal.append.pre_write", 1, 0);
    ("wal.append.pre_write", 4, 0);
    ("wal.append.post_write", 1, 0);
    ("wal.append.post_write", 4, 0);
    ("wal.append.post_fsync", 2, 0);
    ("wal.append.post_fsync", 8, 0);
    (* Snapshot points: hit 1 is the seed snapshot at construction, so
       nth=2 crashes the mid-workload snapshot (snapshot_every=3). *)
    ("snap.pre_write", 2, 3);
    ("snap.pre_rename", 2, 3);
    ("snap.post_rename", 2, 3);
    ("snap.post_retire", 2, 3);
    (* Appends interleaved with frequent rotation. *)
    ("wal.append.post_write", 3, 2);
  ]

let test_crash_recovery () =
  List.iter
    (fun (point, nth, snapshot_every) ->
      crash_and_recover ~point ~nth ~snapshot_every)
    crash_matrix

(* Exactly-once accounting: after a crash + full retry pass, arrivals/
   departures counters must equal the uninterrupted run's (checked via
   the fingerprint above) and dedup hits must equal the number of ops
   that had already been applied before the crash. *)
let test_dedup_suppression () =
  let session = session_of_general ~churn_k:2 (tiny_instance ()) in
  expect_applied "first"
    (arrive session ~req:"r1" ~id:50 ~rate:1 ~path:[ 0; 1; 2 ] ());
  (match arrive session ~req:"r1" ~id:50 ~rate:1 ~path:[ 0; 1; 2 ] () with
  | Ok json -> (
    match Json.member "dedup" json with
    | Some (Json.Bool true) -> ()
    | _ -> Alcotest.failf "expected dedup reply, got %s" (Json.to_string json))
  | Error (code, msg) -> Alcotest.failf "retry rejected: %s %s" code msg);
  (* Same req, conflicting op: still suppressed (it is the same request
     as far as the client is concerned). *)
  (match depart session ~req:"r1" 50 with
  | Ok json -> (
    match Json.member "dedup" json with
    | Some (Json.Bool true) -> ()
    | _ -> Alcotest.fail "req-keyed dedup must not depend on the op")
  | Error (code, msg) -> Alcotest.failf "%s %s" code msg);
  Alcotest.(check int) "one flow" 1
    (match List.assoc "flows" (Session.churn_stats session) with
    | Json.Int n -> n
    | _ -> -1);
  Alcotest.(check int) "dedup hits" 2
    (Tdmd_obs.Telemetry.get_count (Session.durability_telemetry session)
       "dedup_hits")

let durability_int session name =
  match List.assoc_opt "durability" (Session.durability_stats session) with
  | Some (Json.Obj fields) -> (
    match List.assoc_opt name fields with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "durability stats: no int field %S" name)
  | _ -> Alcotest.fail "no durability stats"

(* FIFO-bounded dedup: the cap holds, the *oldest* ids are the ones
   evicted, and the order survives snapshot + recover (so eviction
   after recovery picks the same victims). *)
let test_dedup_bounded () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = Session.durability dir in
  let s =
    session_of_general ~durability:cfg ~dedup_cap:3 ~churn_k:2 (tiny_instance ())
  in
  for i = 1 to 5 do
    expect_applied "bounded arrive"
      (arrive s ~req:(Printf.sprintf "q%d" i) ~id:i ~rate:1
         ~path:[ 0; 1; 2 ] ())
  done;
  Alcotest.(check int) "table capped" 3 (durability_int s "dedup_size");
  Alcotest.(check int) "two evictions" 2 (durability_int s "dedup_evictions");
  (* q5 is remembered: the retry dedups.  q1 was evicted: the retry is
     judged on its merits again, and flow 1 being live makes it a
     conflict. *)
  (match arrive s ~req:"q5" ~id:5 ~rate:1 ~path:[ 0; 1; 2 ] () with
  | Ok json when Json.member "dedup" json = Some (Json.Bool true) -> ()
  | Ok json -> Alcotest.failf "recent id must dedup, got %s" (Json.to_string json)
  | Error (code, msg) -> Alcotest.failf "%s %s" code msg);
  (match arrive s ~req:"q1" ~id:1 ~rate:1 ~path:[ 0; 1; 2 ] () with
  | Error ("conflict", _) -> ()
  | Ok json -> Alcotest.failf "evicted id must not dedup: %s" (Json.to_string json)
  | Error (code, msg) -> Alcotest.failf "expected conflict, got %s %s" code msg);
  Session.close s;
  match Session.recover ~dedup_cap:3 (Session.durability dir) with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check int) "cap survives recovery" 3 (durability_int r "dedup_size");
    (match arrive r ~req:"q5" ~id:5 ~rate:1 ~path:[ 0; 1; 2 ] () with
    | Ok json when Json.member "dedup" json = Some (Json.Bool true) -> ()
    | _ -> Alcotest.fail "recent id must still dedup after recovery");
    (match arrive r ~req:"q1" ~id:1 ~rate:1 ~path:[ 0; 1; 2 ] () with
    | Error ("conflict", _) -> ()
    | _ -> Alcotest.fail "evicted id must stay evicted after recovery");
    Session.close r

(* A crash mid-rotation leaves a journal segment no snapshot names
   (before the rename: the half-born next segment; after it: the
   retired old one) plus possibly a snapshot temp file.  Recovery must
   sweep them, or they pile up forever. *)
let test_recover_removes_orphans () =
  List.iter
    (fun point ->
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let faults =
        match Faults.of_spec (Printf.sprintf "crash@%s:2" point) with
        | Ok t -> t
        | Error m -> Alcotest.fail m
      in
      let cfg = Session.durability ~snapshot_every:3 ~faults dir in
      (match session_of_general ~durability:cfg ~churn_k:2 (tiny_instance ()) with
      | exception Faults.Crash _ -> ()
      | session -> (
        try
          List.iteri
            (fun i wop ->
              expect_wop (point ^ " op") wop (apply_wop session i wop))
            workload
        with Faults.Crash _ -> ()));
      let segments () =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".wal")
      in
      if List.length (segments ()) < 2 then
        Alcotest.failf "%s: crash was expected to strand a segment" point;
      match Session.recover (Session.durability ~snapshot_every:3 dir) with
      | Error msg -> Alcotest.failf "%s: recover: %s" point msg
      | Ok r ->
        Alcotest.(check int) (point ^ ": one segment after recovery") 1
          (List.length (segments ()));
        if
          Array.exists
            (fun f -> Filename.check_suffix f ".tmp")
            (Sys.readdir dir)
        then Alcotest.failf "%s: snapshot temp file survives recovery" point;
        if durability_int r "wal_stale_segments_removed" < 1 then
          Alcotest.failf "%s: removal not counted" point;
        Session.close r)
    [ "snap.pre_rename"; "snap.post_rename" ]

let test_clean_restart_replays_nothing () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = Session.durability dir in
  let s = session_of_general ~durability:cfg ~churn_k:2 (tiny_instance ()) in
  List.iteri (fun i wop -> expect_wop "clean" wop (apply_wop s i wop)) workload;
  let fp = fingerprint s in
  Session.close s;
  match Session.recover (Session.durability dir) with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check int) "nothing to replay" 0
      (Tdmd_obs.Telemetry.get_count (Session.durability_telemetry r)
         "wal_replayed");
    Alcotest.(check string) "state preserved" fp (fingerprint r);
    Session.close r

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "crc32 incremental" `Quick test_crc32_incremental;
    Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
    Alcotest.test_case "backoff budget" `Quick test_backoff_budget;
    QCheck_alcotest.to_alcotest prop_op_roundtrip;
    Alcotest.test_case "crc detects single-byte flips" `Quick
      test_single_byte_flip;
    Alcotest.test_case "torn tail at every offset" `Quick
      test_torn_tail_every_offset;
    Alcotest.test_case "append failure restores the tail" `Quick
      test_append_failure_restores_tail;
    Alcotest.test_case "oversized records refused at append" `Quick
      test_oversized_record_rejected;
    Alcotest.test_case "fsync policy strings" `Quick test_fsync_policy_strings;
    Alcotest.test_case "fault spec grammar" `Quick test_fault_spec;
    Alcotest.test_case "fault spec: extended grammar and conflicts" `Quick
      test_fault_spec_extended;
    QCheck_alcotest.to_alcotest prop_fault_spec_roundtrip;
    Alcotest.test_case "crash directive fires at nth" `Quick
      test_fault_crash_fires_at_nth;
    Alcotest.test_case "frames survive EINTR + short I/O" `Quick
      test_frame_io_under_faults;
    Alcotest.test_case "crash recovery at every point" `Quick
      test_crash_recovery;
    Alcotest.test_case "dedup suppression" `Quick test_dedup_suppression;
    Alcotest.test_case "dedup table is FIFO-bounded" `Quick test_dedup_bounded;
    Alcotest.test_case "recovery sweeps orphaned segments" `Quick
      test_recover_removes_orphans;
    Alcotest.test_case "clean restart replays nothing" `Quick
      test_clean_restart_replays_nothing;
  ]
