module Json = Tdmd_obs.Json

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)
(* ------------------------------------------------------------------ *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  let prefix p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefix "unix:" then Ok (Unix_sock (after "unix:"))
  else if prefix "tcp:" then begin
    match String.rindex_opt (after "tcp:") ':' with
    | None -> Error "tcp address must be tcp:HOST:PORT"
    | Some i ->
      let hp = after "tcp:" in
      let host = String.sub hp 0 i in
      let port = String.sub hp (i + 1) (String.length hp - i - 1) in
      (match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad port %S" port))
  end
  else if s = "" then Error "empty address"
  else Ok (Unix_sock s)

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
        | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
    in
    Unix.ADDR_INET (ip, port)

(* ------------------------------------------------------------------ *)
(* Framing: 4-byte big-endian length + JSON payload                    *)
(* ------------------------------------------------------------------ *)

let max_frame = 16 * 1024 * 1024

(* EINTR-safe, short-write-correct write loop.  A partial [write] (full
   socket buffer, signal mid-copy) resumes at the right offset, so a
   frame can never hit the wire torn; [EINTR] retries without progress.
   The fault hooks shrink or interrupt individual passes deterministically
   so tests can prove both properties. *)
let write_all ?(faults = Faults.none) ?(point = "sock.write") fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    let want = len - !off in
    if Faults.enabled faults then Faults.fail faults point;
    let want = if Faults.enabled faults then Faults.clamp faults point want else want in
    let simulated_eintr = Faults.enabled faults && Faults.eintr faults point in
    if not simulated_eintr then begin
      match Unix.write fd bytes !off want with
      | n -> off := !off + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done

let write_frame ?faults fd json =
  let payload = Bytes.of_string (Json.to_string json) in
  let len = Bytes.length payload in
  let frame = Bytes.create (4 + len) in
  Bytes.set_uint8 frame 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 frame 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 frame 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 frame 3 (len land 0xff);
  Bytes.blit payload 0 frame 4 len;
  (* One write for the whole frame: responses from different worker
     domains interleave at frame granularity under the connection's
     write lock, never inside a frame. *)
  write_all ?faults fd frame

(* [`Eof] only when the stream ends cleanly *between* frames; anything
   truncated mid-frame is [`Bad]. *)
let read_exact ?(faults = Faults.none) fd n ~clean_eof =
  let buf = Bytes.create n in
  let rec go off =
    let want = n - off in
    let want = if Faults.enabled faults then Faults.clamp faults "sock.read" want else want in
    if off >= n then Ok buf
    else if Faults.enabled faults && Faults.eintr faults "sock.read" then go off
    else begin
      match Unix.read fd buf off want with
      | 0 -> if off = 0 && clean_eof then Error `Eof else Error (`Bad "truncated frame")
      | r -> go (off + r)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    end
  in
  go 0

let read_frame ?faults fd =
  match read_exact ?faults fd 4 ~clean_eof:true with
  | Error _ as e -> e
  | Ok hdr ->
    let len =
      (Bytes.get_uint8 hdr 0 lsl 24)
      lor (Bytes.get_uint8 hdr 1 lsl 16)
      lor (Bytes.get_uint8 hdr 2 lsl 8)
      lor Bytes.get_uint8 hdr 3
    in
    if len > max_frame then Error (`Bad (Printf.sprintf "frame of %d bytes exceeds limit" len))
    else begin
      match read_exact ?faults fd len ~clean_eof:false with
      | Error `Eof -> Error (`Bad "truncated frame")
      | Error (`Bad _) as e -> e
      | Ok payload -> (
        match Json.of_string (Bytes.to_string payload) with
        | Ok v -> Ok v
        | Error msg -> Error (`Bad ("invalid JSON payload: " ^ msg)))
    end

(* ------------------------------------------------------------------ *)
(* Field codec                                                         *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* Wire frames, WAL records, snapshots and instance files all read
   their fields through these, so a field decodes the same everywhere;
   [ctx] names the format in front of the error. *)
let with_ctx ctx msg = match ctx with None -> msg | Some c -> c ^ ": " ^ msg

let not_an_int ctx name =
  Error (with_ctx ctx (Printf.sprintf "field %S must be an integer" name))

let int_field ?ctx json name =
  match Json.member name json with
  | Some (Json.Int i) -> Ok i
  | Some _ -> not_an_int ctx name
  | None -> Error (with_ctx ctx (Printf.sprintf "missing field %S" name))

let int_field_opt ?ctx json name ~default =
  match Json.member name json with
  | Some (Json.Int i) -> Ok i
  | Some _ -> not_an_int ctx name
  | None -> Ok default

let string_field ?ctx json name =
  match Json.member name json with
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (with_ctx ctx (Printf.sprintf "field %S must be a string" name))
  | None -> Error (with_ctx ctx (Printf.sprintf "missing field %S" name))

let int_list = function
  | Json.List vs ->
    List.fold_right
      (fun v acc ->
        match (v, acc) with Json.Int i, Some l -> Some (i :: l) | _ -> None)
      vs (Some [])
  | _ -> None

let flow_fields ~id ~rate ~path =
  [
    ("id", Json.Int id);
    ("rate", Json.Int rate);
    ("path", Json.List (List.map (fun v -> Json.Int v) path));
  ]

let flow_of_json ?ctx json =
  let* id = int_field ?ctx json "id" in
  let* rate = int_field ?ctx json "rate" in
  match Json.member "path" json with
  | Some (Json.List _ as l) -> (
    match int_list l with
    | Some path -> Ok (id, rate, path)
    | None -> Error (with_ctx ctx "flow path must be a list of integers"))
  | _ -> Error (with_ctx ctx "missing flow field \"path\"")

let flows_to_json flows =
  Json.List
    (List.map
       (fun (f : Tdmd_flow.Flow.t) ->
         Json.Obj
           (flow_fields ~id:f.Tdmd_flow.Flow.id ~rate:f.Tdmd_flow.Flow.rate
              ~path:(Array.to_list f.Tdmd_flow.Flow.path)))
       flows)

let flows_field ?ctx json =
  match Json.member "flows" json with
  | Some (Json.List fs) ->
    List.fold_right
      (fun f acc ->
        let* acc = acc in
        let* id, rate, path = flow_of_json ?ctx f in
        match Tdmd_flow.Flow.make ~id ~rate ~path with
        | f -> Ok (f :: acc)
        | exception Invalid_argument msg -> Error (with_ctx ctx msg))
      fs (Ok [])
  | _ -> Error (with_ctx ctx "missing field \"flows\"")

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type solve_target = Static | Live

type request =
  | Ping
  | Sleep of int
  | Solve of { algo : string; k : int; seed : int; target : solve_target }
  | Arrive of { id : int; rate : int; path : int list }
  | Depart of int
  | Rebalance of { budget : int option }
  | Stats
  | Health
  | Shutdown

(* The wire protocol is versioned so routing fields can be added
   without breaking older peers.  [V1] is today's frames, unchanged on
   the wire: the version marker ("v") and the shard-routing fields are
   optional, and a V1 sender that omits them parses exactly as before. *)
type version = V1

type envelope = {
  version : version;
  id : Json.t option;
  deadline_ms : int option;
  req : string option;
  request : request;
}

let request_to_json ?id ?deadline_ms ?req request =
  let base =
    match request with
    | Ping -> [ ("op", Json.String "ping") ]
    | Sleep ms -> [ ("op", Json.String "sleep"); ("ms", Json.Int ms) ]
    | Solve { algo; k; seed; target } ->
      [
        ("op", Json.String "solve");
        ("algo", Json.String algo);
        ("k", Json.Int k);
        ("seed", Json.Int seed);
        ("on", Json.String (match target with Static -> "static" | Live -> "live"));
      ]
    | Arrive { id; rate; path } ->
      [ ("op", Json.String "arrive"); ("flow", Json.Obj (flow_fields ~id ~rate ~path)) ]
    | Depart id -> [ ("op", Json.String "depart"); ("flow_id", Json.Int id) ]
    | Rebalance { budget } ->
      ("op", Json.String "rebalance")
      :: (match budget with
         | Some b -> [ ("budget", Json.Int b) ]
         | None -> [])
    | Stats -> [ ("op", Json.String "stats") ]
    | Health -> [ ("op", Json.String "health") ]
    | Shutdown -> [ ("op", Json.String "shutdown") ]
  in
  let envelope =
    (match id with Some v -> [ ("id", v) ] | None -> [])
    @ (match deadline_ms with Some d -> [ ("deadline_ms", Json.Int d) ] | None -> [])
    @ (match req with Some r -> [ ("req", Json.String r) ] | None -> [])
  in
  Json.Obj (base @ envelope)

let parse_request json =
  let* op = string_field json "op" in
  match op with
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "health" -> Ok Health
  | "shutdown" -> Ok Shutdown
  | "sleep" ->
    let* ms = int_field json "ms" in
    if ms < 0 then Error "sleep: ms must be >= 0" else Ok (Sleep ms)
  | "solve" ->
    let* algo = string_field json "algo" in
    let* k = int_field json "k" in
    let* seed = int_field_opt json "seed" ~default:0 in
    let* target =
      match Json.member "on" json with
      | None | Some (Json.String "static") -> Ok Static
      | Some (Json.String "live") -> Ok Live
      | Some _ -> Error "field \"on\" must be \"static\" or \"live\""
    in
    if k < 1 then Error "solve: k must be >= 1"
    else Ok (Solve { algo; k; seed; target })
  | "arrive" -> (
    match Json.member "flow" json with
    | Some flow ->
      let* id, rate, path = flow_of_json flow in
      Ok (Arrive { id; rate; path })
    | None -> Error "missing field \"flow\"")
  | "depart" ->
    let* id = int_field json "flow_id" in
    Ok (Depart id)
  | "rebalance" -> (
    match Json.member "budget" json with
    | None -> Ok (Rebalance { budget = None })
    | Some (Json.Int b) when b >= 0 -> Ok (Rebalance { budget = Some b })
    | Some _ -> Error "rebalance: field \"budget\" must be a non-negative integer")
  | other -> Error (Printf.sprintf "unknown op %S" other)

let request_of_json json =
  match json with
  | Json.Obj _ ->
    let* version =
      match Json.member "v" json with
      | None | Some (Json.Int 1) -> Ok V1
      | Some (Json.Int v) ->
        Error (Printf.sprintf "unsupported protocol version %d" v)
      | Some _ -> Error "field \"v\" must be an integer"
    in
    let* request = parse_request json in
    let* deadline_ms =
      match Json.member "deadline_ms" json with
      | None -> Ok None
      | Some (Json.Int d) when d >= 0 -> Ok (Some d)
      | Some _ -> Error "field \"deadline_ms\" must be a non-negative integer"
    in
    let* req =
      match Json.member "req" json with
      | None -> Ok None
      | Some (Json.String r) when r <> "" -> Ok (Some r)
      | Some _ -> Error "field \"req\" must be a non-empty string"
    in
    Ok { version; id = Json.member "id" json; deadline_ms; req; request }
  | _ -> Error "request must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let id_field = function Some v -> [ ("id", v) ] | None -> []

let ok ?id fields = Json.Obj ((("ok", Json.Bool true) :: id_field id) @ fields)

(* [retry_after_ms] is a V1-additive hint on retryable errors (today:
   ["unavailable"] while a shard recovers) — old clients ignore the
   extra field and keep their own jittered schedule. *)
let error ?id ?retry_after_ms ~code msg =
  Json.Obj
    ((("ok", Json.Bool false) :: id_field id)
    @ [ ("code", Json.String code); ("error", Json.String msg) ]
    @
    match retry_after_ms with
    | Some ms -> [ ("retry_after_ms", Json.Int ms) ]
    | None -> [])

(* ------------------------------------------------------------------ *)
(* Instance codec                                                      *)
(* ------------------------------------------------------------------ *)

let instance_to_json (inst : Tdmd.Instance.t) =
  let g = inst.Tdmd.Instance.graph in
  let edges =
    List.map
      (fun { Tdmd_graph.Digraph.src; dst; _ } ->
        Json.List [ Json.Int src; Json.Int dst ])
      (Tdmd_graph.Digraph.edges g)
  in
  Json.Obj
    [
      ("lambda", Json.Float inst.Tdmd.Instance.lambda);
      ("vertices", Json.Int (Tdmd_graph.Digraph.vertex_count g));
      ("undirected", Json.Bool false);
      ("edges", Json.List edges);
      ("flows", flows_to_json (Tdmd.Instance.flows inst));
    ]

let instance_of_json json =
  let* lambda =
    match Json.member "lambda" json with
    | Some v -> (
      match Json.to_float v with
      | Some x -> Ok x
      | None -> Error "field \"lambda\" must be a number")
    | None -> Error "missing field \"lambda\""
  in
  let* n = int_field json "vertices" in
  if n < 1 then Error "field \"vertices\" must be >= 1"
  else begin
    let undirected =
      match Json.member "undirected" json with
      | Some (Json.Bool b) -> b
      | _ -> true
    in
    let g = Tdmd_graph.Digraph.create n in
    let* () =
      match Json.member "edges" json with
      | Some (Json.List es) ->
        List.fold_left
          (fun acc e ->
            let* () = acc in
            match e with
            | Json.List [ Json.Int u; Json.Int v ]
              when u >= 0 && u < n && v >= 0 && v < n && u <> v ->
              (try
                 if undirected then Tdmd_graph.Digraph.add_undirected g u v
                 else Tdmd_graph.Digraph.add_edge g u v;
                 Ok ()
               with Invalid_argument msg -> Error msg)
            | _ -> Error "each edge must be [u, v] with valid vertex ids")
          (Ok ()) es
      | _ -> Error "missing field \"edges\""
    in
    let* flows = flows_field json in
    match Tdmd.Instance.make ~graph:g ~flows ~lambda with
    | inst -> Ok inst
    | exception Invalid_argument msg -> Error msg
  end
