(* The tdmd serve benchmark.  See bench/perf/README.md.

     perf run (--workload NAME | --all) [--seed N] [--seconds S]
              [--trace [0|1]] [--quick] [--out DIR]
     perf compare OLD_DIR NEW_DIR

   Run from the repository root, with the tdmd CLI built. *)

open Tdmd_perf

let usage () =
  prerr_endline
    "usage: perf run (--workload NAME | --all) [--seed N] [--seconds S] [--trace [0|1]] \
     [--quick] [--out DIR]\n\
    \       perf compare OLD_DIR NEW_DIR";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

let int_arg flag s = match int_of_string_opt s with Some n -> n | None -> die "%s expects an integer, got %S" flag s

let run_cmd args =
  let workloads = ref [] and seed = ref 1 and seconds = ref None and trace = ref false in
  let quick = ref false and out = ref "bench/perf/out/results" in
  let rec parse = function
    | [] -> ()
    | "--all" :: rest ->
      workloads := Workload.names;
      parse rest
    | "--workload" :: name :: rest ->
      if not (List.mem name Workload.names) then
        die "unknown workload %S (one of: %s)" name (String.concat ", " Workload.names);
      workloads := !workloads @ [ name ];
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_arg "--seed" n;
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some x when x > 0.0 -> seconds := Some x
      | _ -> die "--seconds expects a positive number, got %S" s);
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := v = "1";
      parse rest
    | "--trace" :: rest ->
      trace := true;
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: dir :: rest ->
      out := dir;
      parse rest
    | arg :: _ -> die "unexpected argument %S" arg
  in
  parse args;
  if !workloads = [] then usage ();
  if not (Sys.file_exists Run.exe) then die "%s not found: build it first (dune build)" Run.exe;
  let o =
    {
      Run.seed = !seed;
      seconds = Option.value !seconds ~default:(if !quick then 3.0 else 30.0);
      trace = !trace;
      quick = !quick;
      out = !out;
    }
  in
  let reports =
    List.map
      (fun name ->
        let w = Option.get (Workload.find name) in
        let r = Run.run o w in
        Report.print r;
        Report.write_record r ~dir:o.Run.out;
        r)
      !workloads
  in
  let correct = List.for_all Report.correct reports in
  (match reports with
  | [ r ] -> print_endline (Report.result_line r)
  | _ -> Printf.printf "correct: %b\n" correct);
  if correct then 0 else 1

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "run" :: args -> (
      let fail msg =
        prerr_endline ("perf: " ^ msg);
        1
      in
      try run_cmd args with
      | Failure msg | Sys_error msg -> fail msg
      | Unix.Unix_error (err, fn, _) -> fail (fn ^ ": " ^ Unix.error_message err))
    | [ "compare"; old_dir; new_dir ] -> Compare.run ~spec:"BENCHMARK.json" ~old_dir ~new_dir
    | _ -> usage ()
  in
  exit code
