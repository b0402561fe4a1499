(* tdmd.server integration: real sockets, in process.  Eight concurrent
   clients must get answers bit-identical to direct registry calls, and
   the failure paths promised by the protocol — deadline expiry,
   queue-full rejection, malformed frames, churn conflicts and graceful
   drain — must all be observable from the client side. *)

open Tdmd_prelude
module Json = Tdmd_obs.Json
module Sc = Tdmd_sim.Scenario
module P = Tdmd_server.Protocol
module Server = Tdmd_server.Server
module Client = Tdmd_server.Client
module Session = Tdmd_server.Session
module Engine = Tdmd_server.Engine

(* One-shard engines, as [tdmd serve] builds them. *)
let session_of_general ?durability ~churn_k inst =
  Engine.create
    ~config:
      {
        Session.Config.churn_k = churn_k;
        Session.Config.migration_budget = 0;
        Session.Config.dedup_cap = Session.default_dedup_cap;
        Session.Config.durability = durability;
      }
    (Engine.General inst)

let session_of_tree ~churn_k t =
  Engine.create
    ~config:
      {
        Session.Config.churn_k = churn_k;
        Session.Config.migration_budget = 0;
        Session.Config.dedup_cap = Session.default_dedup_cap;
        Session.Config.durability = None;
      }
    (Engine.Tree t)

let temp_addr () =
  let path = Filename.temp_file "tdmd-test" ".sock" in
  Sys.remove path;
  P.Unix_sock path

let with_server ?(domains = 2) ?(queue = 64) ?default_deadline_ms ?metrics_out
    engine f =
  let addr = temp_addr () in
  let server =
    Server.start
      { Server.addr; domains; queue_capacity = queue; default_deadline_ms;
        metrics_out }
      engine
  in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Server.wait server)
    (fun () -> f addr server)

let expect_ok ctx = function
  | Ok resp -> (
    match Json.member "ok" resp with
    | Some (Json.Bool true) -> resp
    | _ -> Alcotest.failf "%s: expected ok, got %s" ctx (Json.to_string resp))
  | Error msg -> Alcotest.failf "%s: transport error: %s" ctx msg

let expect_error ctx code = function
  | Ok resp -> (
    match (Json.member "ok" resp, Json.member "code" resp) with
    | Some (Json.Bool false), Some (Json.String c) when c = code -> resp
    | _ ->
      Alcotest.failf "%s: expected %S error, got %s" ctx code
        (Json.to_string resp))
  | Error msg -> Alcotest.failf "%s: transport error: %s" ctx msg

let int_field ctx name resp =
  match Json.member name resp with
  | Some (Json.Int v) -> v
  | _ -> Alcotest.failf "%s: missing int field %S in %s" ctx name
           (Json.to_string resp)

let contains_substring ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let int_list_field ctx name resp =
  match Json.member name resp with
  | Some (Json.List vs) ->
    List.map (function Json.Int v -> v | _ -> Alcotest.fail ctx) vs
  | _ -> Alcotest.failf "%s: missing list field %S" ctx name

(* A 4-vertex path 0-1-2-3 with one leaf-to-end flow: arrivals along
   [0;1;2;3] are valid, anything skipping a hop is not. *)
let tiny_general () =
  let g = Tdmd_graph.Digraph.create 4 in
  List.iter
    (fun (u, v) -> Tdmd_graph.Digraph.add_undirected g u v)
    [ (0, 1); (1, 2); (2, 3) ];
  Tdmd.Instance.make ~graph:g
    ~flows:[ Tdmd_flow.Flow.make ~id:1 ~rate:2 ~path:[ 0; 1; 2; 3 ] ]
    ~lambda:0.5

(* ------------------------------------------------------------------ *)
(* Raw framing helpers (pipelining and malformed frames need to go     *)
(* below the Client abstraction).                                      *)
(* ------------------------------------------------------------------ *)

let raw_connect addr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (P.sockaddr addr);
  fd

let write_all fd b =
  let n = Bytes.length b in
  (* tdmd-lint: allow bare-unix-io — deliberately raw: these tests craft torn/malformed frames below Protocol *)
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* Length-prefixed payload with arbitrary (possibly invalid) bytes. *)
let write_raw_payload fd payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b

(* ------------------------------------------------------------------ *)
(* 1. Eight concurrent clients, answers cross-checked per request       *)
(* ------------------------------------------------------------------ *)

let test_concurrent_solves () =
  let tree_inst = Sc.build_tree (Rng.create 4242) Sc.default_tree in
  let k = Sc.default_tree.Sc.k in
  let session = session_of_tree ~churn_k:k tree_inst in
  with_server ~domains:2 session (fun addr _server ->
      let algos =
        [| "gtp"; "celf"; "dp"; "hat"; "random"; "best-effort"; "scaled-dp";
           "gtp-ls" |]
      in
      let clients = 8 and per_client = 6 in
      let failures = ref [] in
      let failures_lock = Mutex.create () in
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            Tdmd_prelude.Locked.with_lock failures_lock (fun () ->
                failures := msg :: !failures))
          fmt
      in
      let worker i () =
        let c = Client.connect addr in
        for j = 0 to per_client - 1 do
          let algo = algos.((i + j) mod Array.length algos) in
          let seed = (100 * i) + j in
          match Client.rpc c (P.Solve { algo; k; seed; target = P.Static }) with
          | Error msg -> fail "client %d: transport: %s" i msg
          | Ok resp -> (
            match Json.member "ok" resp with
            | Some (Json.Bool true) ->
              let direct =
                (Option.get (Tdmd.Solvers.on_tree algo))
                  ~rng:(Rng.create seed) ~k tree_inst
              in
              let placement =
                match Json.member "placement" resp with
                | Some (Json.List vs) ->
                  List.filter_map
                    (function Json.Int v -> Some v | _ -> None)
                    vs
                | _ -> []
              in
              if
                placement
                <> Tdmd.Placement.to_list direct.Tdmd.Solver_intf.placement
              then fail "client %d: %s seed %d: placement differs" i algo seed;
              (* Bit-identical: the served float must equal the direct
                 one exactly, not within an epsilon. *)
              if
                Json.member "bandwidth" resp
                <> Some (Json.Float direct.Tdmd.Solver_intf.bandwidth)
              then fail "client %d: %s seed %d: bandwidth differs" i algo seed
            | _ -> fail "client %d: error response %s" i (Json.to_string resp))
        done;
        Client.close c
      in
      let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
      List.iter Thread.join threads;
      (match !failures with
      | [] -> ()
      | msgs -> Alcotest.fail (String.concat "\n" msgs));
      let c = Client.connect addr in
      let stats = expect_ok "stats" (Client.rpc c P.Stats) in
      Client.close c;
      Alcotest.(check bool)
        "all solves completed"
        true
        (int_field "stats" "completed" stats >= clients * per_client))

(* ------------------------------------------------------------------ *)
(* 2. Deadline expiry while queued                                      *)
(* ------------------------------------------------------------------ *)

let test_deadline_expiry () =
  let session = session_of_general ~churn_k:2 (tiny_general ()) in
  with_server ~domains:1 ~queue:8 session (fun addr _server ->
      let sleeper = Client.connect addr in
      let th =
        Thread.create
          (fun () -> ignore (Client.rpc sleeper (P.Sleep 300)))
          ()
      in
      Thread.delay 0.05;
      (* The single worker is asleep for ~300 ms; a 50 ms queueing budget
         must expire before this request is picked up. *)
      let c = Client.connect addr in
      ignore
        (expect_error "queued past deadline" "deadline"
           (Client.rpc c ~deadline_ms:50 (P.Sleep 10)));
      let stats = expect_ok "stats" (Client.rpc c P.Stats) in
      Alcotest.(check bool)
        "timeout counted" true
        (int_field "stats" "timeouts" stats >= 1);
      Thread.join th;
      Client.close c;
      Client.close sleeper)

(* ------------------------------------------------------------------ *)
(* 2b. Deadlined solves answer anytime, never "deadline"                *)
(* ------------------------------------------------------------------ *)

let test_anytime_solve () =
  let session = session_of_general ~churn_k:2 (tiny_general ()) in
  with_server ~domains:2 session (fun addr _server ->
      let c = Client.connect addr in
      let solve deadline_ms =
        expect_ok "anytime solve"
          (Client.rpc c ?deadline_ms
             (P.Solve { algo = "portfolio"; k = 2; seed = 7; target = P.Static }))
      in
      (* Even a 1 ms budget answers with a placement: the greedy-cover
         fallback is published before the race starts. *)
      List.iter
        (fun budget ->
          let resp = solve (Some budget) in
          Alcotest.(check bool)
            (Printf.sprintf "anytime flag at %d ms" budget)
            true
            (Json.member "anytime" resp = Some (Json.Bool true));
          Alcotest.(check bool) "feasible" true
            (Json.member "feasible" resp = Some (Json.Bool true));
          Alcotest.(check bool) "non-empty placement" true
            (int_list_field "solve" "placement" resp <> []);
          Alcotest.(check bool) "member reported" true
            (match Json.member "member" resp with
            | Some (Json.String _) -> true
            | _ -> false);
          ignore (int_field "solve" "improvements" resp);
          ignore (int_field "solve" "budget_ms" resp))
        [ 1; 150 ];
      (* Registry seeds race too: a deadlined gtp must also answer. *)
      let resp =
        expect_ok "anytime gtp"
          (Client.rpc c ~deadline_ms:150
             (P.Solve { algo = "gtp"; k = 2; seed = 7; target = P.Static }))
      in
      Alcotest.(check bool) "gtp anytime flag" true
        (Json.member "anytime" resp = Some (Json.Bool true));
      (* Without a deadline the run-to-completion path is untouched. *)
      let plain =
        expect_ok "plain solve"
          (Client.rpc c
             (P.Solve { algo = "gtp"; k = 2; seed = 7; target = P.Static }))
      in
      Alcotest.(check bool) "no anytime field without deadline" true
        (Json.member "anytime" plain = None);
      (* Unknown names still fail loudly rather than racing nothing. *)
      ignore
        (expect_error "unknown algo" "unknown-algo"
           (Client.rpc c ~deadline_ms:50
              (P.Solve { algo = "nope"; k = 2; seed = 7; target = P.Static })));
      let stats = expect_ok "stats" (Client.rpc c P.Stats) in
      Alcotest.(check bool) "anytime solves counted" true
        (int_field "stats" "anytime_solves" stats >= 3);
      ignore (int_field "stats" "pool_job_errors" stats);
      Client.close c)

(* ------------------------------------------------------------------ *)
(* 3. Bounded queue: overload answered immediately                      *)
(* ------------------------------------------------------------------ *)

let test_overload_rejection () =
  let session = session_of_general ~churn_k:2 (tiny_general ()) in
  with_server ~domains:1 ~queue:2 session (fun addr _server ->
      let fd = raw_connect addr in
      let send ~id ms =
        P.write_frame fd (P.request_to_json ~id:(Json.Int id) (P.Sleep ms))
      in
      send ~id:1 300;
      Thread.delay 0.05;
      (* Worker busy with id 1; ids 2 and 3 fill the queue (capacity 2);
         id 4 must bounce with "overloaded" without waiting. *)
      send ~id:2 50;
      send ~id:3 50;
      send ~id:4 50;
      let responses = ref [] in
      for _ = 1 to 4 do
        match P.read_frame fd with
        | Ok resp ->
          responses :=
            (int_field "overload" "id" resp, resp) :: !responses
        | Error _ -> Alcotest.fail "overload: lost a response frame"
      done;
      let resp id = List.assoc id !responses in
      List.iter
        (fun id ->
          ignore (expect_ok (Printf.sprintf "sleep %d" id) (Ok (resp id))))
        [ 1; 2; 3 ];
      ignore (expect_error "4th pipelined sleep" "overloaded" (Ok (resp 4)));
      Unix.close fd;
      let c = Client.connect addr in
      let stats = expect_ok "stats" (Client.rpc c P.Stats) in
      Client.close c;
      Alcotest.(check int) "one rejection counted" 1
        (int_field "stats" "rejected" stats))

(* ------------------------------------------------------------------ *)
(* 4. Malformed input and registry errors                               *)
(* ------------------------------------------------------------------ *)

let test_malformed_and_unknown () =
  let session = session_of_general ~churn_k:2 (tiny_general ()) in
  with_server session (fun addr _server ->
      (* Invalid JSON in a well-framed payload: answered, then the
         connection is dropped (framing can no longer be trusted). *)
      let fd = raw_connect addr in
      write_raw_payload fd "{this is not json";
      (match P.read_frame fd with
      | Ok resp ->
        ignore (expect_error "bad frame" "bad-request" (Ok resp))
      | Error _ -> Alcotest.fail "bad frame: expected an error response");
      (match P.read_frame fd with
      | Error `Eof -> ()
      | Ok _ | Error (`Bad _) ->
        Alcotest.fail "connection should close after a bad frame");
      Unix.close fd;
      let c = Client.connect addr in
      (* Unknown op. *)
      ignore
        (expect_error "unknown op" "bad-request"
           (Client.rpc_json c (Json.Obj [ ("op", Json.String "frobnicate") ])));
      (* Unknown algorithm: the error must list the registry. *)
      let unknown =
        expect_error "unknown algo" "unknown-algo"
          (Client.rpc c
             (P.Solve { algo = "quantum"; k = 2; seed = 0; target = P.Static }))
      in
      (match Json.member "error" unknown with
      | Some (Json.String msg) ->
        List.iter
          (fun name ->
            Alcotest.(check bool)
              (Printf.sprintf "unknown-algo lists %S" name)
              true
              (contains_substring ~needle:name msg))
          [ "gtp"; "dp"; "hat" ]
      | _ -> Alcotest.fail "unknown algo: no error message");
      (* Tree-only solver against a general instance: refused with a
         pointer at the tree-only registry. *)
      let tree_only =
        expect_error "tree-only on general" "unknown-algo"
          (Client.rpc c
             (P.Solve { algo = "dp"; k = 2; seed = 0; target = P.Static }))
      in
      (match Json.member "error" tree_only with
      | Some (Json.String msg) ->
        Alcotest.(check bool) "mentions tree instances" true
          (contains_substring ~needle:"tree" msg)
      | _ -> Alcotest.fail "tree-only: no error message");
      Client.close c)

(* ------------------------------------------------------------------ *)
(* 5. Churn over the wire                                               *)
(* ------------------------------------------------------------------ *)

let test_churn_ops () =
  let session = session_of_general ~churn_k:2 (tiny_general ()) in
  with_server session (fun addr _server ->
      let c = Client.connect addr in
      let arrived =
        expect_ok "arrive"
          (Client.rpc c (P.Arrive { id = 7; rate = 3; path = [ 0; 1; 2; 3 ] }))
      in
      Alcotest.(check int) "one live flow" 1 (int_field "arrive" "flows" arrived);
      ignore
        (expect_error "duplicate id" "conflict"
           (Client.rpc c (P.Arrive { id = 7; rate = 1; path = [ 0; 1 ] })));
      ignore
        (expect_error "path not in graph" "bad-request"
           (Client.rpc c (P.Arrive { id = 8; rate = 1; path = [ 0; 2 ] })));
      (* The live target solves over the churn engine's flow set. *)
      let live =
        expect_ok "live solve"
          (Client.rpc c
             (P.Solve { algo = "gtp"; k = 2; seed = 5; target = P.Live }))
      in
      Alcotest.(check bool) "live placement within budget" true
        (List.length (int_list_field "live" "placement" live) <= 2);
      let departed = expect_ok "depart" (Client.rpc c (P.Depart 7)) in
      Alcotest.(check int) "flow gone" 0 (int_field "depart" "flows" departed);
      (* An unknown id is refused before anything reaches the journal:
         the engine treats phantom departures as caller bugs. *)
      ignore
        (expect_error "depart unknown id is a conflict" "conflict"
           (Client.rpc c (P.Depart 99)));
      let stats = expect_ok "stats" (Client.rpc c P.Stats) in
      (match Json.member "churn" stats with
      | Some churn ->
        Alcotest.(check int) "arrivals counted" 1
          (int_field "churn" "arrivals" churn)
      | None -> Alcotest.fail "stats: no churn section");
      Client.close c)

(* Idempotency over the wire: a mutating request retried with the same
   ["req"] envelope field is answered from the dedup table, not applied
   again — the contract Client.rpc_retry leans on. *)
let test_dedup_over_the_wire () =
  let session = session_of_general ~churn_k:2 (tiny_general ()) in
  with_server session (fun addr _server ->
      let c = Client.connect addr in
      let first =
        expect_ok "arrive"
          (Client.rpc c ~req:"wire-1"
             (P.Arrive { id = 7; rate = 3; path = [ 0; 1; 2; 3 ] }))
      in
      Alcotest.(check int) "applied" 1 (int_field "arrive" "flows" first);
      let retry =
        expect_ok "retried arrive"
          (Client.rpc c ~req:"wire-1"
             (P.Arrive { id = 7; rate = 3; path = [ 0; 1; 2; 3 ] }))
      in
      Alcotest.(check bool) "marked dedup" true
        (Json.member "dedup" retry = Some (Json.Bool true));
      Alcotest.(check int) "not applied twice" 1
        (int_field "retry" "flows" retry);
      (* Without a req the same frame is a genuine duplicate. *)
      ignore
        (expect_error "no req, no dedup" "conflict"
           (Client.rpc c (P.Arrive { id = 7; rate = 3; path = [ 0; 1; 2; 3 ] })));
      (* rpc_retry generates one req for all its attempts; against a
         healthy server it just behaves like rpc. *)
      let via_retry =
        expect_ok "rpc_retry depart"
          (Client.rpc_retry c (P.Depart 7))
      in
      Alcotest.(check int) "departed" 0 (int_field "depart" "flows" via_retry);
      let stats = expect_ok "stats" (Client.rpc c P.Stats) in
      (match Json.member "durability" stats with
      | Some _ -> Alcotest.fail "non-durable session must not report durability"
      | None -> ());
      Client.close c)

(* ------------------------------------------------------------------ *)
(* 6. Graceful drain: queued work is answered, then the door closes     *)
(* ------------------------------------------------------------------ *)

let test_graceful_drain () =
  let session = session_of_general ~churn_k:2 (tiny_general ()) in
  let metrics = Filename.temp_file "tdmd-test" ".jsonl" in
  Sys.remove metrics;
  let sock_path = ref "" in
  with_server ~domains:1 ~queue:8 ~metrics_out:metrics session
    (fun addr server ->
      (match addr with P.Unix_sock p -> sock_path := p | P.Tcp _ -> ());
      let fd = raw_connect addr in
      let send ~id ms =
        P.write_frame fd (P.request_to_json ~id:(Json.Int id) (P.Sleep ms))
      in
      send ~id:1 200;
      send ~id:2 100;
      send ~id:3 100;
      Thread.delay 0.05;
      (* Connection opened before the stop so its reader is live when
         the flag flips. *)
      let straggler = Client.connect addr in
      let c = Client.connect addr in
      ignore (expect_ok "shutdown ack" (Client.rpc c P.Shutdown));
      Thread.delay 0.05;
      ignore
        (expect_error "request during drain" "shutting-down"
           (Client.rpc straggler P.Ping));
      Server.wait server;
      (* Everything queued before the stop was executed and answered. *)
      let seen = ref [] in
      for _ = 1 to 3 do
        match P.read_frame fd with
        | Ok resp ->
          ignore (expect_ok "drained sleep" (Ok resp));
          seen := int_field "drain" "id" resp :: !seen
        | Error _ -> Alcotest.fail "drain: lost a queued response"
      done;
      Alcotest.(check (list int)) "all queued ids answered" [ 1; 2; 3 ]
        (List.sort compare !seen);
      (match P.read_frame fd with
      | Error `Eof -> ()
      | Ok _ | Error (`Bad _) -> Alcotest.fail "drain: expected EOF after drain");
      Unix.close fd;
      Client.close c;
      Client.close straggler);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists !sock_path);
  let ic = open_in metrics in
  let line = input_line ic in
  close_in ic;
  Sys.remove metrics;
  (match Json.of_string line with
  | Ok record ->
    Alcotest.(check bool) "metrics record is the serve summary" true
      (Json.member "event" record = Some (Json.String "serve"));
    Alcotest.(check bool) "metrics counted the sleeps" true
      (int_field "metrics" "completed" record >= 3)
  | Error msg -> Alcotest.failf "metrics record unparseable: %s" msg)

let suite =
  [
    Alcotest.test_case "8 concurrent clients match the registry" `Slow
      test_concurrent_solves;
    Alcotest.test_case "queued requests expire at their deadline" `Quick
      test_deadline_expiry;
    Alcotest.test_case "deadlined solves answer anytime" `Quick
      test_anytime_solve;
    Alcotest.test_case "full queue rejects with overloaded" `Quick
      test_overload_rejection;
    Alcotest.test_case "malformed frames and unknown names" `Quick
      test_malformed_and_unknown;
    Alcotest.test_case "churn ops over the wire" `Quick test_churn_ops;
    Alcotest.test_case "idempotent retries dedup over the wire" `Quick
      test_dedup_over_the_wire;
    Alcotest.test_case "graceful drain answers queued work" `Quick
      test_graceful_drain;
  ]
