module Json = Tdmd_obs.Json
module Tel = Tdmd_obs.Telemetry

(* Linking the serving layer brings the portfolio names (portfolio /
   anneal / genetic) into the registry: anytime solves depend on them
   and the registry tables are consulted before any request runs. *)
let () = Tdmd_portfolio.Register.install ()

(* ------------------------------------------------------------------ *)
(* Durability configuration                                            *)
(* ------------------------------------------------------------------ *)

type durability = {
  dir : string;
  fsync : Journal.fsync_policy;
  snapshot_every : int;
  faults : Faults.t;
}

let durability ?(fsync = Journal.Always) ?(snapshot_every = 0) ?(faults = Faults.none)
    dir =
  if snapshot_every < 0 then
    invalid_arg "Session.durability: snapshot_every must be >= 0";
  { dir; fsync; snapshot_every; faults }

let snapshot_file cfg = Filename.concat cfg.dir "snapshot.json"
(* Segments rotate by epoch at each snapshot; the snapshot records which
   epoch continues it, so a crash mid-rotation recovers consistently. *)
let journal_file cfg epoch = Filename.concat cfg.dir (Printf.sprintf "journal-%d.wal" epoch)

let default_dedup_cap = 8192

(* ------------------------------------------------------------------ *)
(* Construction config                                                  *)
(* ------------------------------------------------------------------ *)

module Config = struct
  type nonrec t = {
    churn_k : int;
    migration_budget : int;
    dedup_cap : int;
    durability : durability option;
  }

  let default =
    {
      churn_k = 8;
      migration_budget = 0;
      dedup_cap = default_dedup_cap;
      durability = None;
    }
end

type durable = {
  cfg : durability;
  mutable journal : Journal.t;
  mutable epoch : int;
  mutable since_snapshot : int;
}

type t = {
  tree : Tdmd.Instance.Tree.t option;
  general : Tdmd.Instance.t;
  churn : Tdmd.Incremental.t;
  lock : Mutex.t;
  (* Idempotency ids of applied mutating ops.  Kept even without a
     journal — client retries exist either way — and snapshotted /
     rebuilt from the journal when one is configured.  Bounded: ids are
     remembered in arrival order and the oldest evicted past
     [dedup_cap], so memory and snapshot size stay O(cap) under
     unbounded churn (a retry must land within the last [cap] mutating
     ops to be suppressed). *)
  dedup : (string, unit) Hashtbl.t;
  dedup_order : string Queue.t;  (* insertion order, for eviction *)
  dedup_cap : int;
  dtel : Tel.t;  (* journal + dedup + snapshot counters, under the lock *)
  durable : durable option;
  (* Set by [abandon] when a supervisor retires this session in favor of
     a freshly recovered one.  A retired session answers every op
     "unavailable" instead of touching state whose journal lock it no
     longer holds. *)
  mutable dead : bool;
}

let dedup_remember ~tel ~cap table order r =
  if not (Hashtbl.mem table r) then begin
    Hashtbl.replace table r ();
    Queue.push r order;
    while Hashtbl.length table > cap do
      let oldest = Queue.pop order in
      Hashtbl.remove table oldest;
      Tel.count tel "dedup_evictions" 1
    done
  end

let remember t r = dedup_remember ~tel:t.dtel ~cap:t.dedup_cap t.dedup t.dedup_order r

let general t = t.general

type reply = (Json.t, string * string) result

let locked t f = Tdmd_prelude.Locked.with_lock t.lock f

(* ------------------------------------------------------------------ *)
(* Snapshot codec                                                      *)
(* ------------------------------------------------------------------ *)

let snapshot_json t d =
  let churn = t.churn in
  let ctel = Tdmd.Incremental.telemetry churn in
  (* A tree session records its root, added after format-1 snapshots
     first shipped: the static graph and the root determine the tree
     view [parse_snapshot] rebuilds.  General snapshots carry no root. *)
  let root =
    match t.tree with
    | Some tree ->
      [ ("root", Json.Int (Tdmd_tree.Rooted_tree.root tree.Tdmd.Instance.Tree.tree)) ]
    | None -> []
  in
  Json.Obj
    ([
      ("format", Json.Int 1);
      ("epoch", Json.Int d.epoch);
      ("k", Json.Int (Tel.get_count ctel "budget"));
      ("static", Protocol.instance_to_json t.general);
      ( "live",
        Json.Obj
          [
            ("flows", Protocol.flows_to_json (Tdmd.Incremental.flows churn));
            ( "placed",
              Json.List
                (List.map
                   (fun v -> Json.Int v)
                   (Tdmd.Incremental.placed_order churn)) );
            ("moves", Json.Int (Tdmd.Incremental.moves churn));
            ("arrivals", Json.Int (Tel.get_count ctel "arrivals"));
            ("departures", Json.Int (Tel.get_count ctel "departures"));
            (* The rebalancing state must ride along: replaying the
               journal only reproduces automatic rebalance passes under
               the same migration budget.  Absent in pre-rebalance
               snapshots; the parser defaults them to 0. *)
            ( "migration_budget",
              Json.Int (Tdmd.Incremental.migration_budget churn) );
            ("rebalances", Json.Int (Tdmd.Incremental.rebalances churn));
            ( "rebalance_moves",
              Json.Int (Tdmd.Incremental.rebalance_moves churn) );
          ] );
      (* Insertion order, oldest first: recovery must rebuild the same
         eviction order, not just the same set. *)
      ( "dedup",
        Json.List
          (List.rev
             (Queue.fold (fun acc k -> Json.String k :: acc) [] t.dedup_order))
      );
    ]
    @ root)

let ( let* ) = Result.bind

(* A snapshot decodes to the epoch whose journal segment continues it,
   the static instance with its tree view when it has a root, the churn
   engine it restores, and the dedup ids in insertion order. *)
let parse_snapshot json =
  let ctx = "snapshot" in
  let int = Protocol.int_field ~ctx in
  let* format = int json "format" in
  if format <> 1 then Error (Printf.sprintf "snapshot: unsupported format %d" format)
  else begin
    let* epoch = int json "epoch" in
    let* k = int json "k" in
    let* static =
      match Json.member "static" json with
      | Some s -> Protocol.instance_of_json s
      | None -> Error "snapshot: missing field \"static\""
    in
    (* [Rooted_tree.of_digraph] keeps children in ascending order, so
       the graph and the root give back the tree the session served. *)
    let* tree =
      match Json.member "root" json with
      | None -> Ok None
      | Some _ -> (
        let* root = int json "root" in
        match
          Tdmd.Instance.Tree.make
            ~tree:(Tdmd_tree.Rooted_tree.of_digraph static.Tdmd.Instance.graph ~root)
            ~flows:(Tdmd.Instance.flows static) ~lambda:static.Tdmd.Instance.lambda
        with
        | tree -> Ok (Some tree)
        | exception Invalid_argument msg -> Error ("snapshot: tree view invalid: " ^ msg))
    in
    let* live =
      match Json.member "live" json with
      | Some l -> Ok l
      | None -> Error "snapshot: missing field \"live\""
    in
    let* flows = Protocol.flows_field ~ctx live in
    let* placed =
      match Option.bind (Json.member "placed" live) Protocol.int_list with
      | Some placed -> Ok placed
      | None -> Error "snapshot: field \"placed\" must be a list of integers"
    in
    let* moves = int live "moves" in
    let* arrivals = int live "arrivals" in
    let* departures = int live "departures" in
    (* Fields added after format-1 snapshots first shipped: absent means
       0, so pre-rebalance snapshots keep recovering. *)
    let opt name = Protocol.int_field_opt ~ctx live name ~default:0 in
    let* migration_budget = opt "migration_budget" in
    let* rebalances = opt "rebalances" in
    let* rebalance_moves = opt "rebalance_moves" in
    let* dedup =
      match Json.member "dedup" json with
      | Some (Json.List vs) ->
        List.fold_right
          (fun v acc ->
            let* acc = acc in
            match v with
            | Json.String s -> Ok (s :: acc)
            | _ -> Error "snapshot: dedup entries must be strings")
          vs (Ok [])
      | None -> Ok []
      | Some _ -> Error "snapshot: field \"dedup\" must be a list"
    in
    match
      Tdmd.Incremental.restore ~migration_budget ~rebalances ~rebalance_moves
        ~graph:static.Tdmd.Instance.graph ~lambda:static.Tdmd.Instance.lambda ~k
        ~flows ~placed ~moves ~arrivals ~departures ()
    with
    | churn -> Ok (epoch, static, tree, churn, dedup)
    | exception Invalid_argument msg -> Error ("snapshot state invalid: " ^ msg)
  end

(* Crash-safe snapshot write: tmp + fsync + rename + directory fsync.
   Journal segment rotation happens around it (see [write_snapshot]) so
   that a crash at any point leaves either the old (snapshot, segment)
   pair or the new one — never a snapshot whose ops are still in the
   live segment. *)
let write_snapshot_file cfg json =
  let tmp = snapshot_file cfg ^ ".tmp" in
  let payload = Bytes.of_string (Json.to_string json ^ "\n") in
  Faults.hit cfg.faults "snap.pre_write";
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Protocol.write_all ~faults:cfg.faults ~point:"snap.write" fd payload;
      Unix.fsync fd);
  Faults.hit cfg.faults "snap.pre_rename";
  Sys.rename tmp (snapshot_file cfg);
  (* Make the rename itself durable. *)
  (try Journal.fsync_dir cfg.dir with Unix.Unix_error _ -> ());
  Faults.hit cfg.faults "snap.post_rename";
  Bytes.length payload

(* Under the session lock.  Ordering: (1) open + lock the next segment,
   (2) snapshot pointing at it, (3) retire the old segment.  A crash
   between any two steps recovers consistently (the snapshot names the
   segment to replay). *)
let write_snapshot t d =
  let next_epoch = d.epoch + 1 in
  let next_journal, ops =
    Journal.open_append ~faults:d.cfg.faults ~tel:t.dtel ~fsync:d.cfg.fsync
      (journal_file d.cfg next_epoch)
  in
  (* A leftover segment from a crashed snapshot attempt must be empty of
     meaning: its ops were never referenced by any snapshot.  Drop them. *)
  if ops <> [] then Journal.reset next_journal;
  let old_epoch = d.epoch in
  let old_journal = d.journal in
  d.epoch <- next_epoch;
  let bytes =
    match write_snapshot_file d.cfg (snapshot_json t d) with
    | b -> b
    | exception (Faults.Crash _ as e) ->
      (* A simulated kill -9 must not clean up: recovery has to cope
         with the half-rotated directory exactly as a real crash leaves
         it (old snapshot + old segment still present, next segment
         half-born). *)
      raise e
    | exception e ->
      (* Snapshot failed: stay on the old segment, next attempt retries. *)
      d.epoch <- old_epoch;
      Journal.close next_journal;
      (try Sys.remove (journal_file d.cfg next_epoch) with Sys_error _ -> ());
      raise e
  in
  d.journal <- next_journal;
  Journal.close old_journal;
  (try Sys.remove (journal_file d.cfg old_epoch) with Sys_error _ -> ());
  Faults.hit d.cfg.faults "snap.post_retire";
  d.since_snapshot <- 0;
  Tel.count t.dtel "snapshots" 1;
  Tel.gauge t.dtel "snapshot_bytes" (float_of_int bytes)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let make ?durable ~dtel ~dedup_cap ~churn_k ~migration_budget tree general =
  if dedup_cap < 1 then invalid_arg "Session: dedup_cap must be >= 1";
  let churn =
    Tdmd.Incremental.create ~migration_budget
      ~graph:general.Tdmd.Instance.graph ~lambda:general.Tdmd.Instance.lambda
      ~k:churn_k ()
  in
  {
    tree;
    general;
    churn;
    lock = Mutex.create ();
    dedup = Hashtbl.create 64;
    dedup_order = Queue.create ();
    dedup_cap;
    dtel;
    durable;
    dead = false;
  }

let init_durable ~dtel cfg =
  if Sys.file_exists (snapshot_file cfg) then
    raise
      (Sys_error
         (Printf.sprintf
            "%s already holds a snapshot — recover from it instead of starting fresh"
            cfg.dir));
  if not (Sys.file_exists cfg.dir) then Unix.mkdir cfg.dir 0o755;
  let journal, ops =
    Journal.open_append ~faults:cfg.faults ~tel:dtel ~fsync:cfg.fsync
      (journal_file cfg 0)
  in
  (* Ops in an epoch-0 segment with no snapshot would replay from the
     empty initial state; the seed snapshot written right after this
     rotates them away anyway. *)
  ignore ops;
  { cfg; journal; epoch = 0; since_snapshot = 0 }

let build ~(config : Config.t) tree general =
  let dtel = Tel.create () in
  let dedup_cap = config.Config.dedup_cap and churn_k = config.Config.churn_k in
  let migration_budget = config.Config.migration_budget in
  match config.Config.durability with
  | None -> make ~dtel ~dedup_cap ~churn_k ~migration_budget tree general
  | Some cfg ->
    let d = init_durable ~dtel cfg in
    let t =
      make ~durable:d ~dtel ~dedup_cap ~churn_k ~migration_budget tree general
    in
    (* Seed snapshot: from here on the directory is self-contained. *)
    locked t (fun () -> write_snapshot t d);
    t

let create ?(config = Config.default) inst = build ~config None inst

let create_tree ?(config = Config.default) tree_inst =
  build ~config (Some tree_inst) (Tdmd.Instance.Tree.to_general tree_inst)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let apply_op churn = function
  | Journal.Arrive { id; rate; path; req = _ } ->
    Tdmd.Incremental.arrive churn (Tdmd_flow.Flow.make ~id ~rate ~path)
  | Journal.Depart { flow_id; req = _ } ->
    (* Unknown departs are refused before they reach the journal, so a
       live id is guaranteed here — except in journals written before
       that check existed, whose phantom records replay as the no-op
       they effectively were. *)
    if Tdmd.Incremental.mem_flow churn flow_id then
      Tdmd.Incremental.depart churn flow_id
  | Journal.Rebalance { budget; req = _ } ->
    (* The journalled budget is the resolved one, so replay spends
       exactly the moves the original call did. *)
    ignore (Tdmd.Incremental.rebalance ~budget churn)

let op_req = function
  | Journal.Arrive { req; _ }
  | Journal.Depart { req; _ }
  | Journal.Rebalance { req; _ } ->
    req

let segment_epoch name =
  let pre = "journal-" and suf = ".wal" in
  let pl = String.length pre and sl = String.length suf in
  let n = String.length name in
  if n > pl + sl && String.sub name 0 pl = pre && String.sub name (n - sl) sl = suf
  then int_of_string_opt (String.sub name pl (n - pl - sl))
  else None

(* A crash between the snapshot rename and retiring the old segment —
   or between opening the next segment and the rename — leaves a
   journal segment no snapshot will ever name again.  Only the segment
   the snapshot points at carries meaning; everything else (and a
   leftover snapshot tmp) is garbage that would otherwise accumulate
   forever. *)
let remove_stale_files cfg ~tel ~keep_epoch =
  match Sys.readdir cfg.dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun name ->
        let stale =
          match segment_epoch name with
          | Some e -> e <> keep_epoch
          | None -> name = Filename.basename (snapshot_file cfg) ^ ".tmp"
        in
        if stale then begin
          (try Sys.remove (Filename.concat cfg.dir name) with Sys_error _ -> ());
          Tel.count tel "wal_stale_segments_removed" 1
        end)
      entries

let recover ?(dedup_cap = default_dedup_cap) cfg =
  if dedup_cap < 1 then invalid_arg "Session.recover: dedup_cap must be >= 1";
  let* json =
    match read_file (snapshot_file cfg) with
    | contents -> Json.of_string contents
    | exception Sys_error msg -> Error ("cannot read snapshot: " ^ msg)
  in
  let* epoch, static, tree, churn, snap_dedup = parse_snapshot json in
  let dtel = Tel.create () in
  remove_stale_files cfg ~tel:dtel ~keep_epoch:epoch;
  let* journal, ops =
    match
      Journal.open_append ~faults:cfg.faults ~tel:dtel ~fsync:cfg.fsync
        (journal_file cfg epoch)
    with
    | r -> Ok r
    | exception Sys_error msg -> Error msg
  in
  let dedup = Hashtbl.create 64 in
  let dedup_order = Queue.create () in
  let rememb = dedup_remember ~tel:dtel ~cap:dedup_cap dedup dedup_order in
  List.iter rememb snap_dedup;
  let* () =
    try
      List.iter
        (fun op ->
          apply_op churn op;
          match op_req op with Some r -> rememb r | None -> ())
        ops;
      Ok ()
    with Invalid_argument msg ->
      Journal.close journal;
      Error ("journal replay failed: " ^ msg)
  in
  let d = { cfg; journal; epoch; since_snapshot = List.length ops } in
  let t =
    {
      tree;
      general = static;
      churn;
      lock = Mutex.create ();
      dedup;
      dedup_order;
      dedup_cap;
      dtel;
      durable = Some d;
      dead = false;
    }
  in
  Ok t

(* ------------------------------------------------------------------ *)
(* Solve dispatch (unchanged by durability)                            *)
(* ------------------------------------------------------------------ *)

let outcome_fields ~algo ~k ~seed ~target
    { Tdmd.Solver_intf.placement; bandwidth; feasible; telemetry; _ } =
  [
    ("algo", Json.String algo);
    ("k", Json.Int k);
    ("seed", Json.Int seed);
    ( "on",
      Json.String
        (match target with Protocol.Static -> "static" | Protocol.Live -> "live") );
    ( "placement",
      Json.List
        (List.map (fun v -> Json.Int v) (Tdmd.Placement.to_list placement)) );
    ("bandwidth", Json.Float bandwidth);
    ("feasible", Json.Bool feasible);
    ("telemetry", Tdmd_obs.Telemetry.to_json telemetry);
  ]

(* Solver refusals (an instance too large for [brute], a tree-only
   input, ...) answer bad-request. *)
let refusals_as_bad_request f =
  match f () with
  | v -> Ok v
  | exception (Invalid_argument msg | Failure msg) -> Error ("bad-request", msg)

(* The one run-to-completion runner: [run] is the registry entry with
   its instance bound, or the unknown-algo listing. *)
let run_solve ~algo ~k ~seed ~target = function
  | Error msg -> Error ("unknown-algo", msg)
  | Ok run ->
    refusals_as_bad_request (fun () ->
        Json.Obj
          (outcome_fields ~algo ~k ~seed ~target
             (run ~rng:(Tdmd_prelude.Rng.create seed) ~k)))

let general_run algo inst =
  match Tdmd.Solvers.find_general algo with
  | Some f -> Ok (fun ~rng ~k -> f ~rng ~k inst)
  | None -> Error (Tdmd.Solvers.describe_unknown algo)

let solve_on_instance ~algo ~k ~seed ~target inst =
  run_solve ~algo ~k ~seed ~target (general_run algo inst)

let solve t ~algo ~k ~seed =
  run_solve ~algo ~k ~seed ~target:Protocol.Static
    (match t.tree with
    | Some tree_inst -> (
      match Tdmd.Solvers.on_tree algo with
      | Some f -> Ok (fun ~rng ~k -> f ~rng ~k tree_inst)
      | None -> Error (Tdmd.Solvers.describe_unknown ~tree_input:true algo))
    | None -> general_run algo t.general)

(* ------------------------------------------------------------------ *)
(* Anytime solves (deadline-bounded portfolio race)                    *)
(* ------------------------------------------------------------------ *)

(* Any registry name becomes an anytime request: the three portfolio
   names select their members directly, any other known solver races as
   a restart-wrapped seed against the two metaheuristics. *)
let anytime_members ~has_tree algo =
  match algo with
  | "portfolio" -> Ok Tdmd_portfolio.Portfolio.default_members
  | "anneal" -> Ok [ Tdmd_portfolio.Portfolio.Anneal ]
  | "genetic" -> Ok [ Tdmd_portfolio.Portfolio.Genetic ]
  | _ ->
    if
      Option.is_some (Tdmd.Solvers.find_general algo)
      || (has_tree && Option.is_some (Tdmd.Solvers.find_tree algo))
    then
      Ok
        [
          Tdmd_portfolio.Portfolio.Seed algo;
          Tdmd_portfolio.Portfolio.Anneal;
          Tdmd_portfolio.Portfolio.Genetic;
        ]
    else Error (Tdmd.Solvers.describe_unknown ~tree_input:has_tree algo)

let solve_anytime_on_instance ?tree ~algo ~k ~seed ~target ~budget_ms inst =
  match anytime_members ~has_tree:(Option.is_some tree) algo with
  | Error msg -> Error ("unknown-algo", msg)
  | Ok members ->
    refusals_as_bad_request (fun () ->
        let rng = Tdmd_prelude.Rng.create seed in
        let t = Tdmd_portfolio.Portfolio.start ~members ?tree ~rng ~k inst in
        let best = Tdmd_portfolio.Portfolio.await ~deadline_ms:budget_ms t in
        let outcome = Tdmd_portfolio.Portfolio.outcome_of t best in
        Json.Obj
          (outcome_fields ~algo ~k ~seed ~target outcome
          @ [
              ("anytime", Json.Bool true);
              ("budget_ms", Json.Int budget_ms);
              ( "member",
                Json.String
                  (match best with
                  | Some b -> b.Tdmd_portfolio.Portfolio.member
                  | None -> "fallback") );
              ( "improvements",
                Json.Int (Tdmd_portfolio.Portfolio.improvements t) );
            ]))

let solve_anytime t ~algo ~k ~seed ~budget_ms =
  solve_anytime_on_instance ?tree:t.tree ~algo ~k ~seed ~target:Protocol.Static
    ~budget_ms t.general

(* ------------------------------------------------------------------ *)
(* Churn (journaled when durable)                                      *)
(* ------------------------------------------------------------------ *)

type churn_summary = {
  live_flows : int;
  placement : Tdmd.Placement.t;
  bandwidth : float;
  feasible : bool;
  moves : int;
  arrivals : int;
  departures : int;
  rebalances : int;
  rebalance_moves : int;
}

let summary_unlocked t =
  let ctel = Tdmd.Incremental.telemetry t.churn in
  {
    live_flows = Tdmd.Incremental.flow_count t.churn;
    placement = Tdmd.Incremental.placement t.churn;
    bandwidth = Tdmd.Incremental.bandwidth t.churn;
    feasible = Tdmd.Incremental.feasible t.churn;
    moves = Tdmd.Incremental.moves t.churn;
    arrivals = Tel.get_count ctel "arrivals";
    departures = Tel.get_count ctel "departures";
    rebalances = Tdmd.Incremental.rebalances t.churn;
    rebalance_moves = Tdmd.Incremental.rebalance_moves t.churn;
  }

let summary_fields s =
  [
    ("flows", Json.Int s.live_flows);
    ( "placement",
      Json.List
        (List.map (fun v -> Json.Int v) (Tdmd.Placement.to_list s.placement)) );
    ("bandwidth", Json.Float s.bandwidth);
    ("feasible", Json.Bool s.feasible);
    ("moves", Json.Int s.moves);
    ("arrivals", Json.Int s.arrivals);
    ("departures", Json.Int s.departures);
    ("rebalances", Json.Int s.rebalances);
    ("rebalance_moves", Json.Int s.rebalance_moves);
  ]

let churn_summary t = locked t (fun () -> summary_unlocked t)
let churn_stats t = summary_fields (churn_summary t)
let live_flows t = locked t (fun () -> Tdmd.Incremental.flows t.churn)
let live_flow_count t = locked t (fun () -> Tdmd.Incremental.flow_count t.churn)
let seen t r = locked t (fun () -> Hashtbl.mem t.dedup r)

(* Fixed when the churn engine is created or restored. *)
let migration_budget t = Tdmd.Incremental.migration_budget t.churn

(* Dedup check, WAL append, apply, snapshot — all under the session
   lock.  The journal record precedes the state change (write-ahead):
   if we die between the two, replay applies the op and its [req] lands
   in the rebuilt dedup table, so the client's retry is suppressed and
   observes the applied state.  Callers must finish all validation
   before calling: nothing may enter the journal that [apply] (and
   hence replay) would refuse. *)
let dedup_reply t ~op_name =
  Tel.count t.dtel "dedup_hits" 1;
  Ok
    (Json.Obj
       (("op", Json.String op_name)
       :: ("dedup", Json.Bool true)
       :: summary_fields (summary_unlocked t)))

(* One op under the (held) session lock.  Group commit: the journal
   record is appended with [~flush:false]; the caller fires one
   policy-respecting {!Journal.flush} per batch, so a batch of b ops
   costs one fsync instead of b.  Returns whether a record was appended
   alongside the reply, so a failed batch-end flush can downgrade
   exactly the replies whose durability it lost. *)
let journaled_unlocked t ~req ~op_name op ~(apply : unit -> (string * Json.t) list)
    =
  let appended =
    match t.durable with
    | Some d -> (
      match Journal.append ~flush:false d.journal op with
      | () -> Ok true
      (* Oversized record: refused before anything reached the disk
         or the engine — a definitive answer, not worth a retry. *)
      | exception Invalid_argument msg -> Error ("bad-request", msg)
      (* Poisoned or failed append: the append invariant was restored
         (or the journal poisoned), nothing was applied.  Answer this
         op; the rest of the batch still gets its chance. *)
      | exception Sys_error msg -> Error ("internal", msg)
      | exception Unix.Unix_error (err, fn, _) ->
        Error ("internal", Printf.sprintf "%s: %s" fn (Unix.error_message err)))
    | None -> Ok false
  in
  match appended with
  | Error e -> (false, Error e)
  | Ok journaled ->
    (* [apply] returns op-specific reply fields (e.g. rebalance's
       moves spent) appended after the shared churn fields. *)
    let extra = apply () in
    (match req with Some r -> remember t r | None -> ());
    (match t.durable with
    | Some d ->
      d.since_snapshot <- d.since_snapshot + 1;
      if d.cfg.snapshot_every > 0 && d.since_snapshot >= d.cfg.snapshot_every
      then write_snapshot t d
    | None -> ());
    ( journaled,
      Ok
        (Json.Obj
           ((("op", Json.String op_name) :: summary_fields (summary_unlocked t))
           @ extra)) )

let apply_one_unlocked t op =
  let dedup_hit = function Some r -> Hashtbl.mem t.dedup r | None -> false in
  match op with
  | Journal.Arrive { id; rate; path; req } -> (
    match Tdmd_flow.Flow.make ~id ~rate ~path with
    | exception Invalid_argument msg -> (false, Error ("bad-request", msg))
    | flow ->
      (* Dedup before the duplicate-id check: a retry of an applied
         arrive would otherwise be answered "conflict" — with its own
         flow. *)
      if dedup_hit req then (false, dedup_reply t ~op_name:"arrive")
      else if Tdmd.Incremental.mem_flow t.churn id then
        (false, Error ("conflict", Printf.sprintf "flow %d is already active" id))
      else begin
        match Tdmd_flow.Flow.validate t.general.Tdmd.Instance.graph flow with
        | Error msg -> (false, Error ("bad-request", msg))
        | Ok () ->
          journaled_unlocked t ~req ~op_name:"arrive" op ~apply:(fun () ->
              Tdmd.Incremental.arrive t.churn flow;
              [])
      end)
  | Journal.Depart { flow_id; req } ->
    if dedup_hit req then (false, dedup_reply t ~op_name:"depart")
    (* Unknown ids must be refused here, before the journal sees the
       record: the engine treats them as a caller bug, and replay must
       never encounter an op the live path would have raised on. *)
    else if not (Tdmd.Incremental.mem_flow t.churn flow_id) then
      (false, Error ("conflict", Printf.sprintf "flow %d is not active" flow_id))
    else
      journaled_unlocked t ~req ~op_name:"depart" op ~apply:(fun () ->
          Tdmd.Incremental.depart t.churn flow_id;
          [])
  | Journal.Rebalance { budget; req } ->
    (* The op carries the resolved budget, so replay spends exactly the
       moves this call did even if the engine is later recovered under
       a different default.  The journal decoder refuses a negative
       one, so it must never be appended. *)
    if budget < 0 then (false, Error ("bad-request", "rebalance: budget must be >= 0"))
    else if dedup_hit req then (false, dedup_reply t ~op_name:"rebalance")
    else
      journaled_unlocked t ~req ~op_name:"rebalance" op ~apply:(fun () ->
          let used = Tdmd.Incremental.rebalance ~budget t.churn in
          [ ("budget", Json.Int budget); ("moves_used", Json.Int used) ])

let apply_batch t ops =
  match ops with
  | [] -> []
  | ops ->
    locked t (fun () ->
        if t.dead then
          List.map
            (fun _ -> Error ("unavailable", "session retired; retry"))
            ops
        else begin
        let out = List.map (fun op -> apply_one_unlocked t op) ops in
        let flush_result =
          match t.durable with
          | Some d when List.exists fst out -> (
            match Journal.flush d.journal with
            | () -> Ok ()
            | exception Sys_error msg -> Error ("internal", msg)
            | exception Unix.Unix_error (err, fn, _) ->
              Error
                ("internal", Printf.sprintf "%s: %s" fn (Unix.error_message err)))
          | _ -> Ok ()
        in
        match flush_result with
        | Ok () -> List.map snd out
        | Error e ->
          (* The fsync failed: every record this batch appended is on
             disk but of unknown durability (the journal is now
             poisoned).  Never ack what we cannot promise. *)
          List.map
            (fun (journaled, reply) -> if journaled then Error e else reply)
            out
        end)

(* ------------------------------------------------------------------ *)
(* Durability stats and shutdown                                       *)
(* ------------------------------------------------------------------ *)

let durability_stats t =
  locked t (fun () ->
      match t.durable with
      | None -> []
      | Some d ->
        let c name = Json.Int (Tel.get_count t.dtel name) in
        [
          ( "durability",
            Json.Obj
              [
                ("dir", Json.String d.cfg.dir);
                ( "fsync",
                  Json.String (Journal.fsync_policy_to_string d.cfg.fsync) );
                ("epoch", Json.Int d.epoch);
                ("journal_bytes", Json.Int (Journal.size_bytes d.journal));
                ("wal_appends", c "wal_appends");
                ("wal_fsyncs", c "wal_fsyncs");
                ("wal_replayed", c "wal_replayed");
                ("wal_torn_truncations", c "wal_torn_truncations");
                ("wal_append_failures", c "wal_append_failures");
                ("wal_poisoned", Json.Bool (Journal.poisoned d.journal));
                ("wal_stale_segments_removed", c "wal_stale_segments_removed");
                ("snapshots", c "snapshots");
                ("dedup_size", Json.Int (Hashtbl.length t.dedup));
                ("dedup_cap", Json.Int t.dedup_cap);
                ("dedup_hits", c "dedup_hits");
                ("dedup_evictions", c "dedup_evictions");
              ] );
        ])

let durability_telemetry t = t.dtel

let wal_poisoned t =
  locked t (fun () ->
      match t.durable with
      | None -> false
      | Some d -> Journal.poisoned d.journal)

let close t =
  locked t (fun () ->
      match t.durable with
      | None -> ()
      | Some _ when t.dead -> ()
      | Some d ->
        (* Final snapshot: restart after a clean shutdown replays
           nothing. *)
        write_snapshot t d;
        Journal.close d.journal)

(* Supervised-restart retirement: the caller is about to [recover] a
   replacement from disk, so no snapshot is written (the journal is the
   authority) and journal errors are moot — just release the descriptor
   and fence future ops. *)
let abandon t =
  locked t (fun () ->
      if not t.dead then begin
        t.dead <- true;
        match t.durable with
        | None -> ()
        | Some d -> Journal.abandon d.journal
      end)
