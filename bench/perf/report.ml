(* Metric values of one workload run: the human report, the result
   record written per workload, and the one-line JSON result. *)

module Json = Tdmd_obs.Json

type entry = { metric : Spec.metric; value : float; samples : int }

type t = {
  workload : string;
  seed : int;
  quick : bool;
  trace : bool;
  window_s : float;
  mutable entries : entry list;  (* newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* newest first; any error = incorrect *)
  mutable warnings : string list;
      (* statistically unsupported numbers: the run stays correct but is
         invalid, and [compare] skips it *)
}

let create ~workload ~seed ~quick ~trace ~window_s =
  {
    workload;
    seed;
    quick;
    trace;
    window_s;
    entries = [];
    attempted = 0;
    failed = 0;
    errors = [];
    warnings = [];
  }

let add t ?(samples = 1) name value =
  match Spec.find name with
  | None -> invalid_arg ("Report.add: metric not in the catalogue: " ^ name)
  | Some metric ->
    if List.exists (fun e -> e.metric.Spec.name = name) t.entries then
      invalid_arg ("Report.add: metric reported twice: " ^ name);
    t.entries <- { metric; value; samples } :: t.entries

let error t msg = t.errors <- msg :: t.errors
let warn t msg = t.warnings <- msg :: t.warnings
let correct t = t.errors = []
let valid t = t.warnings = []
let entries t = List.rev t.entries

(* The metrics a run of this mode must print: every end-to-end metric,
   and with tracing every per-layer one as well. *)
let expected t = if t.trace then Spec.all else Spec.end_to_end

let check_complete t =
  List.iter
    (fun (m : Spec.metric) ->
      if not (List.exists (fun e -> e.metric.Spec.name = m.Spec.name) t.entries) then
        error t ("metric not measured: " ^ m.Spec.name))
    (expected t)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print t =
  Printf.printf "== %s: seed %d, %.0f s window, %d clients, tdmd serve --domains 2%s%s ==\n"
    t.workload t.seed t.window_s Workload.clients
    (if t.trace then ", traced" else "")
    (if t.quick then ", quick (not comparable)" else "");
  List.iter
    (fun e ->
      Printf.printf "  %-28s %14.6g %-10s (n=%d)\n" e.metric.Spec.name e.value
        e.metric.Spec.unit e.samples)
    (entries t);
  Printf.printf "  attempted %d, failed %d\n" t.attempted t.failed;
  List.iter (fun e -> Printf.printf "  ERROR: %s\n" e) (List.rev t.errors);
  List.iter (fun w -> Printf.printf "  INVALID: %s\n" w) (List.rev t.warnings);
  Printf.printf "correct: %b\n%!" (correct t)

let metric_json ?(samples = true) e =
  Json.Obj
    ([ ("value", Json.Float e.value); ("unit", Json.String e.metric.Spec.unit) ]
    @ if samples then [ ("samples", Json.Int e.samples) ] else [])

(* The last line of a single-workload run: end-to-end metrics, or with
   [--trace] the per-layer ones. *)
let result_line t =
  let wanted = if t.trace then Spec.per_layer else Spec.end_to_end in
  let metrics =
    List.filter_map
      (fun (m : Spec.metric) ->
        List.find_opt (fun e -> e.metric.Spec.name = m.Spec.name) t.entries
        |> Option.map (fun e -> (m.Spec.name, metric_json ~samples:false e)))
      wanted
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct t));
         ("attempted", Json.Int t.attempted);
         ("failed", Json.Int t.failed);
         ("metrics", Json.Obj metrics);
       ])

let git_commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic ->
      let line = try input_line ic with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      line

let record_json t =
  Json.Obj
    [
      ("workload", Json.String t.workload);
      ("commit", Json.String (git_commit ()));
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("quick", Json.Bool t.quick);
      ("trace", Json.Bool t.trace);
      ("seed", Json.Int t.seed);
      ("window_s", Json.Float t.window_s);
      ("clients", Json.Int Workload.clients);
      ("correct", Json.Bool (correct t));
      ("valid", Json.Bool (valid t));
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ("metrics", Json.Obj (List.map (fun e -> (e.metric.Spec.name, metric_json e)) (entries t)));
    ]

let record_file t =
  Printf.sprintf "%s-seed%d%s%s.json" t.workload t.seed
    (if t.trace then "-trace" else "")
    (if t.quick then "-quick" else "")

let write_record t ~dir =
  Fsutil.mkdir_p dir;
  Fsutil.write_file (Filename.concat dir (record_file t)) (Json.to_string (record_json t) ^ "\n")

(* ------------------------------------------------------------------ *)
(* Reading records back ([compare])                                    *)
(* ------------------------------------------------------------------ *)

type record = {
  r_workload : string;
  r_seed : int;
  r_quick : bool;
  r_trace : bool;
  r_valid : bool;
  r_metrics : (string * float) list;
}

let record_of_json j =
  let str k = match Json.member k j with Some (Json.String s) -> Some s | _ -> None in
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  match (str "workload", int "seed", Json.member "metrics" j) with
  | Some r_workload, Some r_seed, Some (Json.Obj ms) ->
    let r_metrics =
      List.filter_map
        (fun (name, m) -> Option.map (fun v -> (name, v)) (Option.bind (Json.member "value" m) Json.to_float))
        ms
    in
    let flag k = Json.member k j = Some (Json.Bool true) in
    Ok
      {
        r_workload;
        r_seed;
        r_quick = flag "quick";
        r_trace = flag "trace";
        r_valid = Json.member "valid" j <> Some (Json.Bool false);
        r_metrics;
      }
  | _ -> Error "not a result record"

let read_records dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | files ->
    Array.sort compare files;
    Ok
      (Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.filter_map (fun f ->
             match Fsutil.read_file (Filename.concat dir f) with
             | Error _ -> None
             | Ok text -> (
               match Result.bind (Json.of_string (String.trim text)) record_of_json with
               | Ok r -> Some r
               | Error _ -> None)))
