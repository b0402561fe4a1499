module Locked = Tdmd_prelude.Locked

exception Crash of string
exception Die of string

type kind = Crash_k | Eintr_k | Short_k | Corrupt_k | Fail_k | Die_k | Delay_k

type trigger = Nth of int | Prob of float

type directive = { kind : kind; point : string; trigger : trigger }

type t = {
  directives : directive list;
  counts : (string, int) Hashtbl.t;  (* per-point pass counts *)
  rng : Tdmd_prelude.Rng.t;          (* offsets, prob draws, delay widths *)
  lock : Mutex.t;  (* points are hit from reader threads and workers *)
}

let none =
  {
    directives = [];
    counts = Hashtbl.create 1;
    rng = Tdmd_prelude.Rng.create 0;
    lock = Mutex.create ();
  }

let enabled t = t.directives <> []

let kind_of_string = function
  | "crash" -> Some Crash_k
  | "eintr" -> Some Eintr_k
  | "short" -> Some Short_k
  | "corrupt" -> Some Corrupt_k
  | "fail" -> Some Fail_k
  | "die" -> Some Die_k
  | "delay" -> Some Delay_k
  | _ -> None

let string_of_kind = function
  | Crash_k -> "crash"
  | Eintr_k -> "eintr"
  | Short_k -> "short"
  | Corrupt_k -> "corrupt"
  | Fail_k -> "fail"
  | Die_k -> "die"
  | Delay_k -> "delay"

(* Kinds whose firing raises: two of these armed so they can fire on the
   same pass of the same point would race for the exception, which makes
   the plan ambiguous rather than deterministic. *)
let raises = function
  | Crash_k | Die_k | Fail_k -> true
  | Eintr_k | Short_k | Corrupt_k | Delay_k -> false

let may_coincide a b =
  match (a, b) with
  | Nth n, Nth m -> n = m
  | Prob _, _ | _, Prob _ -> true

let check_conflicts directives =
  let rec go = function
    | [] -> Ok ()
    | d :: rest ->
      if List.exists (fun e -> e = d) rest then
        Error
          (Printf.sprintf "duplicate directive %s@%s" (string_of_kind d.kind)
             d.point)
      else if
        raises d.kind
        && List.exists
             (fun e ->
               e.point = d.point && raises e.kind
               && may_coincide d.trigger e.trigger)
             rest
      then
        Error
          (Printf.sprintf
             "conflicting directives at point %S: two raising kinds could \
              fire on the same pass"
             d.point)
      else go rest
  in
  go directives

let of_spec spec =
  let parts =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let parse_directive part =
    match String.index_opt part '@' with
    | None -> (
      match String.split_on_char '=' part with
      | [ "seed"; v ] -> (
        match int_of_string_opt v with
        | Some s -> Ok (`Seed s)
        | None -> Error (Printf.sprintf "bad seed %S" v))
      | _ ->
        Error
          (Printf.sprintf
             "bad directive %S (expected KIND@POINT[:NTH|:p=P] or seed=N)"
             part))
    | Some at -> (
      let kind_s = String.sub part 0 at in
      let tail = String.sub part (at + 1) (String.length part - at - 1) in
      let point_trigger =
        match String.rindex_opt tail ':' with
        | Some i -> (
          let p = String.sub tail 0 i in
          let n = String.sub tail (i + 1) (String.length tail - i - 1) in
          match int_of_string_opt n with
          | Some n when n >= 1 -> Ok (p, Nth n)
          | Some _ ->
            Error (Printf.sprintf "bad NTH in %S (must be >= 1)" part)
          | None -> (
            match String.split_on_char '=' n with
            | [ "p"; v ] -> (
              match float_of_string_opt v with
              | Some p_val when p_val > 0. && p_val <= 1. ->
                Ok (p, Prob p_val)
              | Some _ ->
                Error
                  (Printf.sprintf "bad probability in %S (need 0 < p <= 1)"
                     part)
              | None -> Error (Printf.sprintf "bad probability in %S" part))
            | _ ->
              Error
                (Printf.sprintf
                   "bad trigger %S in %S (expected :NTH or :p=P)" n part)))
        | None -> Ok (tail, Nth 1)
      in
      match point_trigger with
      | Error _ as e -> e
      | Ok (point, trigger) -> (
        match kind_of_string kind_s with
        | Some kind when point <> "" -> Ok (`Directive { kind; point; trigger })
        | Some _ -> Error (Printf.sprintf "empty point in %S" part)
        | None -> Error (Printf.sprintf "unknown fault kind %S" kind_s)))
  in
  let rec go seed acc = function
    | [] -> (
      let directives = List.rev acc in
      match check_conflicts directives with
      | Error _ as e -> e
      | Ok () ->
        Ok
          {
            directives;
            counts = Hashtbl.create 8;
            rng = Tdmd_prelude.Rng.create seed;
            lock = Mutex.create ();
          })
    | part :: rest -> (
      match parse_directive part with
      | Error _ as e -> e
      | Ok (`Seed s) -> go s acc rest
      | Ok (`Directive d) -> go seed (d :: acc) rest)
  in
  go 0 [] parts

let from_env () =
  match Sys.getenv_opt "TDMD_FAULTS" with
  | None | Some "" -> none
  | Some spec -> (
    match of_spec spec with
    | Ok t -> t
    | Error msg ->
      (* tdmd-lint: allow no-direct-io — a bad TDMD_FAULTS spec aborts startup before any sink exists *)
      Printf.eprintf "TDMD_FAULTS: %s\n%!" msg;
      exit 2)

(* Count the pass and return the directives firing on it: [Nth n] fires
   at exactly the [n]-th pass, [Prob p] fires on an independent seeded
   draw every pass.  One mutex for the whole plan: fault runs are not
   performance runs. *)
let fire t point =
  if not (enabled t) then []
  else
    Locked.with_lock t.lock (fun () ->
        let n =
          (match Hashtbl.find_opt t.counts point with Some c -> c | None -> 0)
          + 1
        in
        Hashtbl.replace t.counts point n;
        List.filter
          (fun d ->
            d.point = point
            &&
            match d.trigger with
            | Nth k -> k = n
            | Prob p -> Tdmd_prelude.Rng.float t.rng 1.0 < p)
          t.directives)

let hit t point =
  let fired = fire t point in
  if List.exists (fun d -> d.kind = Delay_k) fired then begin
    let dt =
      Locked.with_lock t.lock (fun () ->
          0.001 +. Tdmd_prelude.Rng.float t.rng 0.009)
    in
    Unix.sleepf dt
  end;
  if List.exists (fun d -> d.kind = Crash_k) fired then raise (Crash point);
  if List.exists (fun d -> d.kind = Die_k) fired then raise (Die point)

let eintr t point =
  List.exists (fun d -> d.kind = Eintr_k) (fire t point)

(* Its own point namespace ([POINT.fail]) so arming a failure does not
   shift the hit counts that [short]/[eintr] directives at [POINT] were
   tuned against. *)
let fail t point =
  if List.exists (fun d -> d.kind = Fail_k) (fire t (point ^ ".fail")) then
    raise (Unix.Unix_error (Unix.EIO, "write", point))

let clamp t point len =
  let fired = fire t point in
  if len <= 1 then len
  else if List.exists (fun d -> d.kind = Short_k) fired then
    Locked.with_lock t.lock (fun () -> 1 + Tdmd_prelude.Rng.int t.rng (len - 1))
  else len

let mangle t point buf =
  let fired = fire t point in
  if Bytes.length buf > 0 && List.exists (fun d -> d.kind = Corrupt_k) fired
  then begin
    let i, bit =
      Locked.with_lock t.lock (fun () ->
          let i = Tdmd_prelude.Rng.int t.rng (Bytes.length buf) in
          (i, 1 lsl Tdmd_prelude.Rng.int t.rng 8))
    in
    Bytes.set_uint8 buf i (Bytes.get_uint8 buf i lxor bit)
  end
