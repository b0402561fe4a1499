module Json = Tdmd_obs.Json
module Parallel = Tdmd_prelude.Parallel
module Partition = Tdmd_topo.Partition

type source =
  | General of Tdmd.Instance.t
  | Tree of Tdmd.Instance.Tree.t

type t = {
  shards : Shard.t array;  (* cells are swapped by supervised restarts *)
  router : Router.t;
  general : Tdmd.Instance.t;  (* canonical static instance *)
  sup : Supervisor.t;
  degraded_reads : bool;
  dedup_cap : int;
  (* Per-shard durability config, for the supervised restart path; [None]
     when there is no disk state to recover a failed shard from. *)
  shard_cfg : (int -> Session.durability) option;
}

let shard_count t = Array.length t.shards
let shard t i = t.shards.(i)
let general t = t.general
let supervisor t = t.sup
let router t = t.router
let retry_after_ms t = Supervisor.retry_after_ms t.sup

let shard_dir root i = Filename.concat root (Printf.sprintf "shard-%d" i)

let ensure_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Shard [i] of a durable engine keeps its state in [root/shard-<i>/]. *)
let shard_durability (d : Session.durability) i =
  { d with Session.dir = shard_dir d.Session.dir i }

(* A flat root (written before sharding) is {!recover}'s to move. *)
let refuse_flat_root (d : Session.durability) =
  if Sys.file_exists (Session.snapshot_file d) then
    raise
      (Sys_error
         (Printf.sprintf
            "%s already holds a snapshot — recover from it instead of starting fresh"
            d.Session.dir))

let build_session ~config source =
  match source with
  | General inst -> Session.create ~config inst
  | Tree tree_inst -> Session.create_tree ~config tree_inst

(* In-place supervised restart of one shard: retire the dead session
   (releasing its journal descriptor without a snapshot — the disk is
   the authority), recover a replacement from the shard directory, swap
   it into the shard array (a pointer write, atomic for concurrent
   readers) and reconcile the routing table against the recovered flow
   set.  Runs on the supervisor's recovery thread. *)
let restart_shard t i =
  match t.shard_cfg with
  | None -> Error "shard is not durable; nothing to recover from"
  | Some cfg_of ->
    let cfg = cfg_of i in
    Session.abandon (Shard.session t.shards.(i));
    (match Session.recover ~dedup_cap:t.dedup_cap cfg with
    | Error _ as e -> e
    | Ok session ->
      t.shards.(i) <- Shard.create ~faults:cfg.Session.faults ~id:i session;
      Router.reconcile t.router ~shard:i
        ~flow_ids:
          (List.map
             (fun (f : Tdmd_flow.Flow.t) -> f.Tdmd_flow.Flow.id)
             (Session.live_flows session));
      Ok ())

(* Tie the knot between the engine and its supervisor: the restart
   closure needs the engine, which holds the supervisor. *)
let finish ?supervisor ?(degraded_reads = false) ~dedup_cap ~shard_cfg ~faults
    ~shards ~router general =
  let cell = ref None in
  let restart =
    match shard_cfg with
    | None -> None
    | Some _ ->
      Some
        (fun i ->
          match !cell with
          | Some t -> restart_shard t i
          | None -> Error "engine still initialising")
  in
  let sup =
    Supervisor.create ?config:supervisor ~faults ~restart
      ~shards:(Array.length shards) ()
  in
  let t =
    { shards; router; general; sup; degraded_reads; dedup_cap; shard_cfg }
  in
  cell := Some t;
  t

let create ?supervisor ?degraded_reads ?(config = Session.Config.default)
    ?(shards = 1) ?partition source =
  if shards < 1 then invalid_arg "Engine.create: shards must be >= 1";
  let general =
    match source with
    | General inst -> inst
    | Tree tree_inst -> Tdmd.Instance.Tree.to_general tree_inst
  in
  let partition =
    match partition with
    | Some p ->
      if Partition.shards p <> shards then
        invalid_arg "Engine.create: partition/shards mismatch";
      if Partition.vertex_count p <> Tdmd_graph.Digraph.vertex_count general.Tdmd.Instance.graph
      then invalid_arg "Engine.create: partition covers a different graph";
      p
    | None -> Partition.make general.Tdmd.Instance.graph ~shards
  in
  let durability = config.Session.Config.durability in
  let faults =
    match durability with Some d -> d.Session.faults | None -> Faults.none
  in
  Option.iter
    (fun d ->
      ensure_dir d.Session.dir;
      refuse_flat_root d)
    durability;
  let shard_cfg = Option.map shard_durability durability in
  let shard_arr =
    Array.init shards (fun i ->
        let durability = Option.map (fun cfg_of -> cfg_of i) shard_cfg in
        let config = { config with Session.Config.durability } in
        Shard.create ~faults ~id:i (build_session ~config source))
  in
  finish ?supervisor ?degraded_reads ~dedup_cap:config.Session.Config.dedup_cap
    ~shard_cfg ~faults ~shards:shard_arr ~router:(Router.create partition) general

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let detect_shards root =
  let rec go i = if Sys.file_exists (shard_dir root i) then go (i + 1) else i in
  go 0

let rebuild_router partition shards =
  let router = Router.create partition in
  Array.iter
    (fun sh ->
      List.iter
        (fun (f : Tdmd_flow.Flow.t) ->
          Router.assign router ~flow_id:f.Tdmd_flow.Flow.id ~shard:(Shard.id sh))
        (Session.live_flows (Shard.session sh)))
    shards;
  router

(* What one shard's recovery task answers: its session, its error, or
   the exception it raised, kept as a value so that the sessions the
   other tasks opened are still in hand when one shard fails. *)
type recovered =
  | Recovered of Session.t
  | Failed of string
  | Raised of exn * Printexc.raw_backtrace

(* Each shard recovers from its own directory and reads nothing else,
   so the shards replay at once, one domain each up to the core count;
   every session is the one a sequential recovery would build. *)
let recover_shards ~dedup_cap shard_cfg n_shards =
  Parallel.map
    ~domains:(Int.min n_shards (Parallel.recommended_domains ()))
    (fun i ->
      match Session.recover ~dedup_cap (shard_cfg i) with
      | Ok s -> Recovered s
      | Error msg -> Failed (Printf.sprintf "shard %d: %s" i msg)
      | exception e -> Raised (e, Printexc.get_raw_backtrace ()))
    (List.init n_shards Fun.id)

(* Every session, in shard order, or the lowest-numbered shard's
   failure. *)
let rec in_shard_order = function
  | [] -> Ok []
  | Recovered s :: rest -> Result.map (List.cons s) (in_shard_order rest)
  | Failed msg :: _ -> Error msg
  | Raised (e, bt) :: _ -> Printexc.raise_with_backtrace e bt

(* [k ()], running [undo] first when it answers [Error] or raises. *)
let undo_on_failure ~undo k =
  match k () with
  | Ok _ as ok -> ok
  | Error _ as e ->
    undo ();
    e
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    undo ();
    Printexc.raise_with_backtrace e bt

(* The one-time move of a flat root into [shard-0/] (engine.mli,
   Recovery): the journal segments and a leftover temp file first, the
   snapshot last, each step made durable in both directories. *)
let move_flat_root (cfg : Session.durability) =
  let root = cfg.Session.dir and shard0 = shard_dir cfg.Session.dir 0 in
  let snapshot = Filename.basename (Session.snapshot_file cfg) in
  let companion name =
    (String.starts_with ~prefix:"journal-" name && Filename.check_suffix name ".wal")
    || name = snapshot ^ ".tmp"
  in
  let move names =
    List.iter
      (fun name -> Sys.rename (Filename.concat root name) (Filename.concat shard0 name))
      names;
    Journal.fsync_dir shard0;
    Journal.fsync_dir root
  in
  if not (Sys.file_exists (Filename.concat root snapshot)) then Ok ()
  else if Sys.file_exists (Filename.concat shard0 snapshot) then
    Error
      (Printf.sprintf
         "%s holds both a flat snapshot.json and shard-0/snapshot.json; refusing \
          to overwrite either"
         root)
  else
    match
      ensure_dir shard0;
      move (List.filter companion (Array.to_list (Sys.readdir root)));
      move [ snapshot ]
    with
    | () -> Ok ()
    | exception Sys_error msg -> Error msg
    | exception Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "%s: %s: %s" root fn (Unix.error_message err))

(* Earlier builds also journaled each cross-shard arrival in a
   coordinator journal, [root/coord.wal], and answered its client only
   once the arrival was retired there.  An arrival that file still holds
   unretired was never answered, so the client's retry with the same req
   applies it once, as for a local op lost in flight: the file is
   dropped unread once every shard has recovered. *)
let remove_coordinator_journal root =
  let path = Filename.concat root "coord.wal" in
  if not (Sys.file_exists path) then Ok ()
  else
    match Sys.remove path with
    | () -> Ok ()
    | exception Sys_error msg -> Error msg

let recover ?supervisor ?degraded_reads ?(dedup_cap = Session.default_dedup_cap)
    (cfg : Session.durability) =
  let root = cfg.Session.dir in
  let faults = cfg.Session.faults in
  let* () = move_flat_root cfg in
  let* n_shards =
    match detect_shards root with
    | 0 ->
      Error
        (Printf.sprintf "%s holds no engine state: neither shard-0/ nor snapshot.json"
           root)
    | n -> Ok n
  in
  let shard_cfg = shard_durability cfg in
  let outcomes = recover_shards ~dedup_cap shard_cfg n_shards in
  (* A failed recovery leaves nothing open: every session it opened is
     abandoned (no snapshot, journal lock released), whichever shard
     failed. *)
  let opened =
    List.filter_map
      (function Recovered s -> Some s | Failed _ | Raised _ -> None)
      outcomes
  in
  undo_on_failure ~undo:(fun () -> List.iter Session.abandon opened) @@ fun () ->
  let* sessions = in_shard_order outcomes in
  let sessions = Array.of_list sessions in
  let shards = Array.mapi (fun i s -> Shard.create ~faults ~id:i s) sessions in
  let general = Session.general sessions.(0) in
  (* The partition is a deterministic function of the recovered graph,
     so it is the partition the engine was created with. *)
  let partition = Partition.make general.Tdmd.Instance.graph ~shards:n_shards in
  let router = rebuild_router partition shards in
  let* () = remove_coordinator_journal root in
  Ok
    (finish ?supervisor ?degraded_reads ~dedup_cap ~shard_cfg:(Some shard_cfg)
       ~faults ~shards ~router general)

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)
(* ------------------------------------------------------------------ *)

let tag_shard t ~shard ~cross reply =
  if Array.length t.shards = 1 then reply
  else
    (* Routing detail is appended only in sharded mode, so [--shards 1]
       replies keep the single-engine bytes. *)
    match reply with
    | Ok (Json.Obj fields) ->
      Ok
        (Json.Obj
           (fields
           @ (("shard", Json.Int shard)
             :: (if cross then [ ("cross", Json.Bool true) ] else []))))
    | (Ok _ | Error _) as r -> r

(* Dispatch one op to a shard under the supervisor: refuse up front when
   the shard is not [Serving]; absorb a mid-op shard death (the
   leader's [Faults.Die], a poisoned journal's exception) into a
   supervised restart plus an ["unavailable"] answer; and detect WAL
   poisoning — which {!Session.apply_batch} surfaces as [Error] replies,
   never exceptions — after the batch, so the shard restarts instead of
   wedging. *)
let guarded_submit t i bop =
  match Supervisor.guard t.sup i with
  | Error msg -> Error ("unavailable", msg)
  | Ok () ->
    let reply =
      Supervisor.protect t.sup i
        ~fallback:(fun _ ->
          Error
            ( "unavailable",
              "shard failed mid-op; op may or may not be applied — retry with \
               the same req" ))
        (fun () -> Shard.submit t.shards.(i) bop)
    in
    if Session.wal_poisoned (Shard.session t.shards.(i)) then
      Supervisor.report_failure t.sup i ~reason:"wal poisoned";
    reply

(* An arrival is applied on its home shard alone, whether its path stays
   in that shard's region or crosses others: the shards it only crosses
   never see the op, so only the home shard's health gates it. *)
let arrive t ?req ~id ~rate ~path () =
  match Router.route_arrive t.router ~path with
  | exception Invalid_argument msg -> Error ("bad-request", msg)
  | decision -> (
    let home, cross =
      match decision with
      | Router.Local s -> (s, false)
      | Router.Cross { home; _ } -> (home, true)
    in
    (* Global duplicate-id check: each session only knows its own flows,
       so an id resident on another shard must be refused here.  A retry
       (same path, hence same route) lands on its own shard instead and
       reaches that session's dedup table first, which decides between
       ["dedup"] and ["conflict"] exactly as the pre-shard engine did. *)
    match Router.lookup t.router ~flow_id:id with
    | Some resident when resident <> home ->
      Error ("conflict", Printf.sprintf "flow %d is already active" id)
    | Some _ | None ->
      let reply = guarded_submit t home (Journal.Arrive { id; rate; path; req }) in
      (match reply with
      | Ok _ -> Router.assign t.router ~flow_id:id ~shard:home
      | Error _ -> ());
      tag_shard t ~shard:home ~cross reply)

(* A flow the router does not know may be the retry of a depart that
   already applied (the first ack released it, or a restart rebuilt the
   table from live flows): the shard whose dedup table holds the req
   answers it, exactly as one shard would.  Otherwise the hint, then
   shard 0, refuse it as "conflict". *)
let depart_home t ?req ?shard_hint flow_id =
  match Router.lookup t.router ~flow_id with
  | Some home -> home
  | None -> (
    let applied_by r =
      Array.find_index (fun sh -> Session.seen (Shard.session sh) r) t.shards
    in
    match Option.bind req applied_by with
    | Some home -> home
    | None -> Router.route_depart t.router ?hint:shard_hint ~flow_id ())

let depart t ?req ?shard_hint flow_id =
  let home = depart_home t ?req ?shard_hint flow_id in
  let reply = guarded_submit t home (Journal.Depart { flow_id; req }) in
  (match reply with
  | Ok _ -> Router.release t.router ~flow_id
  | Error _ -> ());
  tag_shard t ~shard:home ~cross:false reply

(* ------------------------------------------------------------------ *)
(* Solve                                                               *)
(* ------------------------------------------------------------------ *)

let combined_live_instance t =
  let flows =
    Array.to_list t.shards
    |> List.concat_map (fun sh -> Session.live_flows (Shard.session sh))
  in
  (* Shard-major order (shard 0's flows first): deterministic given the
     shard contents, which recovery reproduces exactly. *)
  Tdmd.Instance.make ~graph:t.general.Tdmd.Instance.graph ~flows
    ~lambda:t.general.Tdmd.Instance.lambda

(* Read-only ops against live state while a shard is down: refused by
   default (the live union would silently miss the recovering shard's
   churn), answered from the last applied state and flagged
   ["degraded": true] under [serve --degraded-reads].  Static solves
   are pure functions of the immutable static instance and are never
   gated. *)
type read_status = Read_ok | Read_degraded | Read_unavailable of string

let read_status t =
  if Supervisor.all_serving t.sup then Read_ok
  else if t.degraded_reads then Read_degraded
  else
    Read_unavailable
      "a shard is recovering or poisoned; live reads are refused without \
       --degraded-reads"

let tag_degraded = function
  | Ok (Json.Obj fields) ->
    Ok (Json.Obj (fields @ [ ("degraded", Json.Bool true) ]))
  | (Ok _ | Error _) as r -> r

(* A live read runs over the union of the shards' flows at every shard
   count (at one shard that union is the churn engine's instance, flow
   for flow). *)
let live_read t f =
  match read_status t with
  | Read_unavailable msg -> Error ("unavailable", msg)
  | (Read_ok | Read_degraded) as st ->
    let reply =
      match combined_live_instance t with
      | inst -> f inst
      | exception Invalid_argument msg -> Error ("internal", msg)
    in
    if st = Read_degraded then tag_degraded reply else reply

let solve t ~algo ~k ~seed ~target =
  match target with
  | Protocol.Static ->
    (* Shard 0's session carries the same static instance (and tree
       view) every shard does. *)
    Session.solve (Shard.session t.shards.(0)) ~algo ~k ~seed
  | Protocol.Live -> live_read t (Session.solve_on_instance ~algo ~k ~seed ~target)

let solve_anytime t ~algo ~k ~seed ~target ~budget_ms =
  match target with
  | Protocol.Static ->
    Session.solve_anytime (Shard.session t.shards.(0)) ~algo ~k ~seed ~budget_ms
  | Protocol.Live ->
    live_read t (fun inst ->
        Session.solve_anytime_on_instance ~algo ~k ~seed ~target ~budget_ms inst)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

(* Shard summaries add up: flows and counters sum, placements union,
   and the fleet is feasible when every shard is. *)
let add_summary (a : Session.churn_summary) (b : Session.churn_summary) =
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

(* Folded from shard 0's summary, so one shard is its own summary. *)
let churn_stats t =
  let summary i = Session.churn_summary (Shard.session t.shards.(i)) in
  let total = ref (summary 0) in
  for i = 1 to Array.length t.shards - 1 do
    total := add_summary !total (summary i)
  done;
  Session.summary_fields !total

(* Rebalance fans out to every shard: each shard's placement is
   independent, so each spends its own budget on its own local search.
   The same [req] goes to every shard — dedup tables are per-shard, so
   a retry is suppressed on exactly the shards that already applied it
   and runs on any shard that had not. *)
let rebalance t ?req ?budget () =
  let op i =
    let session = Shard.session t.shards.(i) in
    let budget = Option.value budget ~default:(Session.migration_budget session) in
    Journal.Rebalance { budget; req }
  in
  if Array.length t.shards = 1 then guarded_submit t 0 (op 0)
  else if not (Supervisor.all_serving t.sup) then
    (* A partial rebalance (some shards re-placed, one skipped) would
       leave the fleet optimizing against two different placements;
       require the whole fleet up and let the client retry. *)
    Error ("unavailable", "rebalance needs every shard serving; retry")
  else begin
    let replies =
      Array.mapi
        (fun i _ -> guarded_submit t i (op i))
        t.shards
    in
    match Array.find_opt Result.is_error replies with
    | Some (Error _ as e) -> e
    | Some (Ok _) | None ->
      let field name json =
        match json with
        | Ok (Json.Obj fields) -> List.assoc_opt name fields
        | Ok _ | Error _ -> None
      in
      let sum_int name =
        Array.fold_left
          (fun acc r ->
            match field name r with Some (Json.Int i) -> acc + i | _ -> acc)
          0 replies
      in
      (* A dedup hit answers without budget/moves_used; surface the
         resolved budget from any shard that ran, and flag dedup only
         when every shard suppressed the retry. *)
      let budget_field =
        Array.fold_left
          (fun acc r ->
            match acc with
            | Some _ -> acc
            | None -> (
              match field "budget" r with
              | Some (Json.Int b) -> Some b
              | _ -> None))
          None replies
      in
      let all_dedup =
        Array.for_all (fun r -> field "dedup" r = Some (Json.Bool true)) replies
      in
      Ok
        (Json.Obj
           ((("op", Json.String "rebalance") :: churn_stats t)
           @ (match budget_field with
             | Some b -> [ ("budget", Json.Int b) ]
             | None -> [])
           @ [ ("moves_used", Json.Int (sum_int "moves_used")) ]
           @ (if all_dedup then [ ("dedup", Json.Bool true) ] else [])))
  end

let shard_stats_json t =
  Array.to_list
    (Array.map
       (fun sh ->
         let st = Shard.stats sh in
         let batch_avg =
           if st.Shard.batches = 0 then 0.0
           else float_of_int st.Shard.batched_ops /. float_of_int st.Shard.batches
         in
         Json.Obj
           [
             ("shard", Json.Int (Shard.id sh));
             ("flows", Json.Int (Session.live_flow_count (Shard.session sh)));
             ("queue_depth", Json.Int st.Shard.queue_depth);
             ("queue_peak", Json.Int st.Shard.queue_peak);
             ("batches", Json.Int st.Shard.batches);
             ("batched_ops", Json.Int st.Shard.batched_ops);
             ("fsync_batch_avg", Json.Float batch_avg);
             ("fsync_batch_max", Json.Int st.Shard.batch_max);
           ])
       t.shards)

let health_fields t =
  let hs = Supervisor.health t.sup in
  [
    ( "healthy",
      Json.Bool
        (Array.for_all (fun h -> h.Supervisor.state = Supervisor.Serving) hs) );
    ("degraded_reads", Json.Bool t.degraded_reads);
    ( "shards",
      Json.List
        (Array.to_list
           (Array.mapi
              (fun i h ->
                Json.Obj
                  [
                    ("shard", Json.Int i);
                    ( "state",
                      Json.String (Supervisor.state_to_string h.Supervisor.state)
                    );
                    ("restarts", Json.Int h.Supervisor.restarts);
                    ("recovery_failures", Json.Int h.Supervisor.failures);
                    ( "consecutive_failures",
                      Json.Int h.Supervisor.consecutive_failures );
                    ("breaker_trips", Json.Int h.Supervisor.breaker_trips);
                    ("last_recovery_ms", Json.Float h.Supervisor.last_recovery_ms);
                    ( "wal_poisoned",
                      Json.Bool (Session.wal_poisoned (Shard.session t.shards.(i)))
                    );
                  ])
              hs)) );
  ]

(* One shard keeps the session's ["durability"] section in front, so the
   V1 reply only gains fields. *)
let stats_fields t =
  (if Array.length t.shards = 1 then
     Session.durability_stats (Shard.session t.shards.(0))
   else [])
  @ [
      ("shards", Json.List (shard_stats_json t));
      ("health", Json.Obj (health_fields t));
    ]

let close t =
  (* Join every recovery thread first so a mid-restart shard swap cannot
     race the closes below. *)
  Supervisor.shutdown t.sup;
  Array.iter
    (fun sh ->
      try Shard.close sh
      with Sys_error _ | Unix.Unix_error (_, _, _) ->
        (* A shard that died and never recovered (poisoned WAL, breaker
           open) cannot take a final snapshot; retire it without one —
           the disk already holds everything it acked. *)
        Session.abandon (Shard.session sh))
    t.shards
