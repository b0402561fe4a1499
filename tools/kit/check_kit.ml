(* Shared machinery for the repo's static-analysis tools (tdmd-lint,
   tdmd-analyze): diagnostics, suppression comments, file walking, the
   SARIF report and the common command-line driver.

   Both tools are compiler-libs AST passes with the same operational
   contract — "file:line: [rule] message" output, no grandfathered
   findings, and reasoned in-source suppressions — so the contract
   lives here once and the tools plug in only their rules. *)

type diagnostic = { file : string; line : int; rule : string; message : string }

let compare_diagnostic a b =
  match compare a.file b.file with
  | 0 -> (
    match compare a.line b.line with 0 -> compare a.rule b.rule | c -> c)
  | c -> c

let to_string d = Printf.sprintf "%s:%d: [%s] %s" d.file d.line d.rule d.message

(* ------------------------------------------------------------------ *)
(* Small parsing helpers shared by the AST passes                      *)
(* ------------------------------------------------------------------ *)

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply _ -> []

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

(* Matches [segs] at the end of [path], so both [Obj.magic] and
   [Stdlib.Obj.magic] hit. *)
let ends_with path segs =
  let lp = List.length path and ls = List.length segs in
  lp >= ls && drop (lp - ls) path = segs

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

(* Interfaces parse with [Parse.interface]; expressions still occur in
   them (attribute payloads, e.g. [@@check (fun x -> x = 0.0)]), so the
   expression-level rules apply to both kinds of file. *)
let parse_ast ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  if Filename.check_suffix file ".mli" then Intf (Parse.interface lexbuf)
  else Impl (Parse.implementation lexbuf)

let iter_ast (iter : Ast_iterator.iterator) = function
  | Impl structure -> iter.Ast_iterator.structure iter structure
  | Intf signature -> iter.Ast_iterator.signature iter signature

let parse_error_diagnostic ~file exn =
  let line =
    match exn with
    | Syntaxerr.Error e -> line_of (Syntaxerr.location_of_error e)
    | _ -> 1
  in
  { file; line; rule = "parse-error"; message = "cannot parse file" }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Suppression comments                                                *)
(* ------------------------------------------------------------------ *)

(* [(* MARKER: allow RULE[,RULE]* — reason *)] — the rule list must name
   rules the tool knows and the reason is mandatory.  A suppression
   covers the line it sits on and the following line, so both trailing
   and preceding-line comments work.  [marker] is the tool name
   ("tdmd-lint" / "tdmd-analyze"), so each tool only honours its own
   comments. *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

let is_separator tok =
  tok = "\xe2\x80\x94" (* em dash *)
  || tok = "-" || tok = "--"
  || (String.length tok >= 3 && String.sub tok 0 3 = "\xe2\x80\x94")

let parse_suppression ~marker ~known_rule ~file ~line text =
  (* [text] is everything after "MARKER: allow" up to "*)" or EOL. *)
  let tokens =
    String.split_on_char ' ' text
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  let rec take_rules acc = function
    | tok :: rest when not (is_separator tok) ->
      if known_rule tok then take_rules (tok :: acc) rest
      else (List.rev acc, Some tok, rest)
    | rest -> (List.rev acc, None, rest)
  in
  let rules, bad, rest = take_rules [] tokens in
  let reason =
    match rest with
    | sep :: tail when is_separator sep -> String.concat " " tail
    | tail -> String.concat " " tail
  in
  match (rules, bad) with
  | _, Some tok ->
    Error
      {
        file;
        line;
        rule = "suppression";
        message = Printf.sprintf "unknown rule %S in suppression comment" tok;
      }
  | [], None ->
    Error
      {
        file;
        line;
        rule = "suppression";
        message = "suppression comment names no rule";
      }
  | rules, None ->
    if String.trim reason = "" then
      Error
        {
          file;
          line;
          rule = "suppression";
          message =
            Printf.sprintf
              "suppression comment needs a reason: (* %s: allow RULE \
               \xe2\x80\x94 reason *)"
              marker;
        }
    else Ok rules

type suppressions = (int, string list) Hashtbl.t

let scan_suppressions ~marker ~known_rule ~file source :
    suppressions * diagnostic list =
  let table : suppressions = Hashtbl.create 8 in
  let errors = ref [] in
  let needle = marker ^ ": allow" in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun i line_text ->
      let line = i + 1 in
      match find_sub line_text needle 0 with
      | None -> ()
      | Some at ->
        let start = at + String.length needle in
        let stop =
          match find_sub line_text "*)" start with
          | Some e -> e
          | None -> String.length line_text
        in
        let text = String.sub line_text start (stop - start) in
        (match parse_suppression ~marker ~known_rule ~file ~line text with
        | Ok rules ->
          let prev =
            match Hashtbl.find_opt table line with Some rs -> rs | None -> []
          in
          Hashtbl.replace table line (rules @ prev)
        | Error d -> errors := d :: !errors))
    lines;
  (table, !errors)

let suppressed (table : suppressions) rule line =
  let covers l =
    match Hashtbl.find_opt table l with
    | Some rules -> List.mem rule rules
    | None -> false
  in
  covers line || covers (line - 1)

(* ------------------------------------------------------------------ *)
(* SARIF report                                                        *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Minimal SARIF 2.1.0 — enough for GitHub's code-scanning upload to
   render each diagnostic as an annotation on the PR diff. *)
let diagnostics_to_sarif ~tool ~rules diagnostics =
  let rule_json (id, doc) =
    Printf.sprintf "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"}}"
      (json_escape id) (json_escape doc)
  in
  let result d =
    Printf.sprintf
      "{\"ruleId\":\"%s\",\"level\":\"error\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d}}}]}"
      (json_escape d.rule) (json_escape d.message) (json_escape d.file)
      (max 1 d.line)
  in
  Printf.sprintf
    "{\"version\":\"2.1.0\",\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"%s\",\"informationUri\":\"https://example.invalid/tdmd\",\"rules\":[%s]}},\"results\":[%s]}]}"
    (json_escape tool)
    (String.concat "," (List.map rule_json rules))
    (String.concat "," (List.map result diagnostics))

(* ------------------------------------------------------------------ *)
(* File walking                                                        *)
(* ------------------------------------------------------------------ *)

let normalize path =
  (* "./lib//server" -> "lib/server"; keeps diagnostics stable however
     the tool is invoked. *)
  let parts =
    String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")
  in
  String.concat "/" parts

let excluded ~excludes path =
  List.exists
    (fun e ->
      let e = normalize e in
      path = e
      || String.length path > String.length e
         && String.sub path 0 (String.length e + 1) = e ^ "/")
    excludes

let rec walk ~suffixes ~excludes acc path =
  let path = normalize path in
  if excluded ~excludes path then acc
  else if Sys.is_directory path then
    Array.fold_left
      (fun acc name ->
        if name = "_build" || name = ".git" then acc
        else walk ~suffixes ~excludes acc (Filename.concat path name))
      acc
      (let entries = Sys.readdir path in
       Array.sort compare entries;
       entries)
  else if List.exists (fun s -> Filename.check_suffix path s) suffixes then
    path :: acc
  else acc

let walk_files ~suffixes ~excludes roots =
  List.sort_uniq compare
    (List.fold_left (walk ~suffixes ~excludes) [] roots)

(* ------------------------------------------------------------------ *)
(* Shared command-line driver                                          *)
(* ------------------------------------------------------------------ *)

type tool = {
  name : string;  (** also the suppression-comment marker *)
  suffixes : string list;  (** file suffixes to pick up when walking *)
  rule_catalogue : (string * string) list;  (** (rule id, one-line doc) *)
  extra_spec : (string * Arg.spec * string) list;
      (** tool-specific flags, e.g. tdmd-analyze's --registry *)
  analyze : files:string list -> diagnostic list;
      (** whole run: normalized file list in, diagnostics out (already
          suppression-filtered and sorted) *)
}

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let main tool =
  let usage =
    Printf.sprintf "%s [options] PATH...\nOptions:"
      (Filename.basename Sys.executable_name)
  in
  let sarif_out = ref "" in
  let excludes = ref [] in
  let list_rules = ref false in
  let roots = ref [] in
  let spec =
    [
      ( "--sarif",
        Arg.Set_string sarif_out,
        "FILE write a SARIF 2.1.0 report (GitHub code-scanning annotations)" );
      ( "--exclude",
        Arg.String (fun p -> excludes := p :: !excludes),
        "PATH skip files under this path (repeatable)" );
      ( "--list-rules",
        Arg.Set list_rules,
        " print the rule catalogue and exit" );
    ]
    @ tool.extra_spec
  in
  Arg.parse spec (fun p -> roots := p :: !roots) usage;
  if !list_rules then begin
    List.iter
      (fun (id, doc) -> Printf.printf "%-22s %s\n" id doc)
      tool.rule_catalogue;
    exit 0
  end;
  if !roots = [] then begin
    Printf.eprintf "%s: no paths given\n" tool.name;
    Arg.usage spec usage;
    exit 2
  end;
  let files =
    walk_files ~suffixes:tool.suffixes ~excludes:!excludes (List.rev !roots)
  in
  let diagnostics =
    List.sort compare_diagnostic (tool.analyze ~files)
  in
  if !sarif_out <> "" then
    write_file !sarif_out
      (diagnostics_to_sarif ~tool:tool.name ~rules:tool.rule_catalogue
         diagnostics
      ^ "\n");
  List.iter (fun d -> print_endline (to_string d)) diagnostics;
  if diagnostics <> [] then begin
    Printf.eprintf "%s: %d violation(s) in %d file(s) scanned\n" tool.name
      (List.length diagnostics) (List.length files);
    exit 1
  end
  else
    Printf.eprintf "%s: clean \xe2\x80\x94 %d file(s) scanned\n" tool.name
      (List.length files)
