module Json = Tdmd_obs.Json
module Crc32 = Tdmd_prelude.Crc32

(* ------------------------------------------------------------------ *)
(* Operations and their codec                                          *)
(* ------------------------------------------------------------------ *)

type op =
  | Arrive of { id : int; rate : int; path : int list; req : string option }
  | Depart of { flow_id : int; req : string option }
  | Rebalance of { budget : int; req : string option }

let req_field = function
  | Some r -> [ ("req", Json.String r) ]
  | None -> []

let op_to_json = function
  | Arrive { id; rate; path; req } ->
    Json.Obj
      ((("op", Json.String "arrive") :: Protocol.flow_fields ~id ~rate ~path)
      @ req_field req)
  | Depart { flow_id; req } ->
    Json.Obj
      ([ ("op", Json.String "depart"); ("flow_id", Json.Int flow_id) ]
      @ req_field req)
  | Rebalance { budget; req } ->
    Json.Obj
      ([ ("op", Json.String "rebalance"); ("budget", Json.Int budget) ]
      @ req_field req)

let ( let* ) = Result.bind

let ctx = "journal record"

let req_of json =
  match Json.member "req" json with
  | None -> Ok None
  | Some _ -> Result.map Option.some (Protocol.string_field ~ctx json "req")

let op_of_json json =
  match Json.member "op" json with
  | Some (Json.String "arrive") ->
    let* id, rate, path = Protocol.flow_of_json ~ctx json in
    let* req = req_of json in
    Ok (Arrive { id; rate; path; req })
  | Some (Json.String "depart") ->
    let* flow_id = Protocol.int_field ~ctx json "flow_id" in
    let* req = req_of json in
    Ok (Depart { flow_id; req })
  | Some (Json.String "rebalance") ->
    let* budget = Protocol.int_field ~ctx json "budget" in
    if budget < 0 then Error "journal record: rebalance budget must be >= 0"
    else
      let* req = req_of json in
      Ok (Rebalance { budget; req })
  | Some (Json.String other) ->
    Error (Printf.sprintf "journal record: unknown op %S" other)
  | _ -> Error "journal record: missing field \"op\""

(* ------------------------------------------------------------------ *)
(* On-disk framing                                                     *)
(* ------------------------------------------------------------------ *)

(* A length that decodes above this is necessarily corruption: single
   records are tiny (one churn op). *)
let max_record = 1 lsl 20

let be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let set_be32 b off v =
  Bytes.set_uint8 b off ((v lsr 24) land 0xff);
  Bytes.set_uint8 b (off + 1) ((v lsr 16) land 0xff);
  Bytes.set_uint8 b (off + 2) ((v lsr 8) land 0xff);
  Bytes.set_uint8 b (off + 3) (v land 0xff)

let encode op =
  let payload = Json.to_string (op_to_json op) in
  let len = String.length payload in
  (* Replay treats len > max_record as corruption, so writing such a
     record would make it — and every record after it — unreadable.
     Refuse before anything touches the disk. *)
  if len > max_record then
    invalid_arg
      (Printf.sprintf "journal record: %d-byte payload exceeds the %d-byte limit"
         len max_record);
  let b = Bytes.create (8 + len) in
  set_be32 b 0 len;
  set_be32 b 4 (Crc32.string payload);
  Bytes.blit_string payload 0 b 8 len;
  Bytes.unsafe_to_string b

(* [data] is the whole file: decode the longest valid prefix.  Returns
   the ops and the byte offset of the first unreadable record. *)
let decode_prefix data =
  let total = String.length data in
  let rec go off acc =
    if off + 8 > total then (List.rev acc, off)
    else begin
      let len = be32 data off in
      let crc = be32 data (off + 4) in
      if len > max_record || off + 8 + len > total then (List.rev acc, off)
      else begin
        let payload = String.sub data (off + 8) len in
        if Crc32.string payload <> crc then (List.rev acc, off)
        else begin
          match Result.bind (Json.of_string payload) op_of_json with
          | Ok op -> go (off + 8 + len) (op :: acc)
          | Error _ -> (List.rev acc, off)
        end
      end
    end
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Fsync policy                                                        *)
(* ------------------------------------------------------------------ *)

let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

type fsync_policy = Always | Every_n of int | Never

let fsync_policy_of_string = function
  | "always" -> Ok Always
  | "none" -> Ok Never
  | s -> (
    let prefix = "every-" in
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then begin
      match int_of_string_opt (String.sub s pl (String.length s - pl)) with
      | Some n when n >= 1 -> Ok (Every_n n)
      | _ -> Error (Printf.sprintf "bad fsync policy %S (every-N needs N >= 1)" s)
    end
    else Error (Printf.sprintf "unknown fsync policy %S (always | every-N | none)" s))

let fsync_policy_to_string = function
  | Always -> "always"
  | Never -> "none"
  | Every_n n -> Printf.sprintf "every-%d" n

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  fd : Unix.file_descr;
  path : string;
  fsync : fsync_policy;
  faults : Faults.t;
  tel : Tdmd_obs.Telemetry.t;
  mutable unsynced : int;  (* records since last fsync *)
  mutable size : int;      (* valid bytes on disk *)
  mutable poisoned : bool; (* invariant lost: refuse further appends *)
}

let count t name n = Tdmd_obs.Telemetry.count t.tel name n

let read_whole fd =
  let size = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  match Protocol.read_exact fd size ~clean_eof:false with
  | Ok buf -> Bytes.unsafe_to_string buf
  | Error (`Eof | `Bad _) -> failwith "journal shrank while reading"

let replay path =
  if not (Sys.file_exists path) then Ok ([], 0)
  else begin
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "cannot open %s: %s" path (Unix.error_message err))
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match read_whole fd with
          | data ->
            let ops, good = decode_prefix data in
            Ok (ops, String.length data - good)
          | exception (Unix.Unix_error _ | Failure _) ->
            Error (Printf.sprintf "cannot read %s" path))
  end

let open_append ?(faults = Faults.none) ?tel ~fsync path =
  let tel =
    match tel with Some t -> t | None -> Tdmd_obs.Telemetry.create ()
  in
  let fd =
    try Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
    with Unix.Unix_error (err, _, _) ->
      raise (Sys_error (Printf.sprintf "cannot open journal %s: %s" path
                          (Unix.error_message err)))
  in
  (* One writer per journal, ever: the lock dies with the process, so a
     kill -9 leaves the file claimable. *)
  (try Unix.lockf fd Unix.F_TLOCK 0
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise (Sys_error (Printf.sprintf "journal %s is locked by another process" path)));
  let data = read_whole fd in
  let ops, good = decode_prefix data in
  let torn = String.length data - good in
  Tdmd_obs.Telemetry.count tel "wal_replayed" (List.length ops);
  if torn > 0 then begin
    Tdmd_obs.Telemetry.count tel "wal_torn_truncations" 1;
    Tdmd_obs.Telemetry.count tel "wal_torn_bytes" torn;
    Unix.ftruncate fd good
  end;
  ignore (Unix.lseek fd good Unix.SEEK_SET);
  let t =
    { fd; path; fsync; faults; tel; unsynced = 0; size = good; poisoned = false }
  in
  (t, ops)

let do_fsync t =
  Unix.fsync t.fd;
  t.unsynced <- 0;
  count t "wal_fsyncs" 1

let maybe_fsync t =
  match t.fsync with
  | Never -> ()
  | Always -> do_fsync t
  | Every_n n -> if t.unsynced >= n then do_fsync t

let append ?(flush = true) t op =
  if t.poisoned then
    raise
      (Sys_error
         (Printf.sprintf
            "journal %s: poisoned by an earlier write failure; recover before \
             accepting new ops"
            t.path));
  let record = Bytes.of_string (encode op) in
  Faults.hit t.faults "wal.append.pre_write";
  Faults.mangle t.faults "wal.write" record;
  (try Protocol.write_all ~faults:t.faults ~point:"wal.write" t.fd record with
  | Faults.Crash _ as e ->
    (* Simulated kill -9: leave the torn tail for recovery to find. *)
    raise e
  | e ->
    (* A prefix of the record may be on disk and the fd offset is
       mid-record.  Restore the append invariant — valid bytes = t.size,
       offset at t.size — so every later acked record is still readable
       on replay; if even that fails, no further append can be trusted
       to land at a decodable boundary. *)
    (try
       Unix.ftruncate t.fd t.size;
       ignore (Unix.lseek t.fd t.size Unix.SEEK_SET)
     with Unix.Unix_error _ | Sys_error _ -> t.poisoned <- true);
    count t "wal_append_failures" 1;
    raise e);
  t.size <- t.size + Bytes.length record;
  t.unsynced <- t.unsynced + 1;
  count t "wal_appends" 1;
  count t "wal_bytes" (Bytes.length record);
  Faults.hit t.faults "wal.append.post_write";
  (* Group commit: a batch appends its first n-1 records with
     [flush:false] and only the last one runs the fsync policy — one
     fsync then covers the whole batch, because fsync flushes the file,
     not the record. *)
  if flush then begin
    (try maybe_fsync t with
    | Faults.Crash _ as e -> raise e
    | e ->
      (* The record is intact on disk but its durability is unknown, and
         a failed fsync must not be retried as if nothing happened (the
         kernel may have dropped the dirty pages).  Stop acking. *)
      t.poisoned <- true;
      count t "wal_append_failures" 1;
      raise e);
    Faults.hit t.faults "wal.append.post_fsync"
  end

let sync t = if t.unsynced > 0 then do_fsync t

(* Batch-end counterpart of the [flush:true] tail of [append]: apply the
   fsync policy to everything appended with [flush:false], with the same
   poisoning discipline and the same crash-point. *)
let flush t =
  (try maybe_fsync t with
  | Faults.Crash _ as e -> raise e
  | e ->
    t.poisoned <- true;
    count t "wal_append_failures" 1;
    raise e);
  Faults.hit t.faults "wal.append.post_fsync"

let reset t =
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  t.size <- 0;
  t.unsynced <- 0;
  do_fsync t

let size_bytes t = t.size
let poisoned t = t.poisoned

let close t =
  (match t.fsync with Never -> () | Always | Every_n _ -> sync t);
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Supervised restart path: the journal is being replaced by a fresh
   recovery, so a final sync would only re-raise whatever poisoned it.
   Just drop the descriptor (releasing the lock) without promising
   anything about the unsynced tail. *)
let abandon t =
  t.poisoned <- true;
  try Unix.close t.fd with Unix.Unix_error _ -> ()
