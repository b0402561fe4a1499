(* Scratch-directory helpers. *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* An empty directory at [dir], whatever was there before. *)
let fresh_dir dir =
  rm_rf dir;
  mkdir_p dir;
  dir

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
