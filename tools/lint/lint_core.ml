(* tdmd-lint: a compiler-libs AST pass enforcing the repo's per-file
   concurrency, I/O and exception-safety invariants.  (Whole-program
   properties — lock ordering, domain escape, string registries — live
   in tools/analyze; the shared suppression/report machinery lives in
   tools/kit.)

   Every rule is grounded in a bug this repo actually shipped: the
   [Obj.magic] heap dummy (PR 2), EINTR-unsafe [Unix.read]/[Unix.write]
   (PR 4), leaked mutexes on exception paths, [with _ ->] handlers that
   swallowed [Out_of_memory] during crash-safety reasoning, float
   equality by polymorphic [=], Stdlib's polymorphic [min] in the
   oracle's per-flow ledger arithmetic, and [Crc32]'s module-level
   [lazy] table, which two recovery domains forced at once.

   The pass is purely syntactic (Parsetree + Ast_iterator, no typing
   environment), so the record-compare rule works from identifier-name
   heuristics; the fixture corpus under test/lint_fixtures/ pins down
   exactly what each rule does and does not flag.  Both [.ml] and
   [.mli] files are linted: interfaces carry expressions in attribute
   payloads and those are held to the same rules. *)

module K = Check_kit

type rule =
  | Obj_magic
  | Bare_unix_io
  | Naked_mutex_lock
  | Catch_all
  | Direct_io
  | Poly_compare_record
  | Float_equal
  | Poly_order
  | Toplevel_lazy

let all_rules =
  [
    Obj_magic;
    Bare_unix_io;
    Naked_mutex_lock;
    Catch_all;
    Direct_io;
    Poly_compare_record;
    Float_equal;
    Poly_order;
    Toplevel_lazy;
  ]

let rule_id = function
  | Obj_magic -> "obj-magic"
  | Bare_unix_io -> "bare-unix-io"
  | Naked_mutex_lock -> "naked-mutex-lock"
  | Catch_all -> "catch-all"
  | Direct_io -> "no-direct-io"
  | Poly_compare_record -> "poly-compare-record"
  | Float_equal -> "float-equal"
  | Poly_order -> "poly-order"
  | Toplevel_lazy -> "toplevel-lazy"

let rule_of_id = function
  | "obj-magic" -> Some Obj_magic
  | "bare-unix-io" -> Some Bare_unix_io
  | "naked-mutex-lock" -> Some Naked_mutex_lock
  | "catch-all" -> Some Catch_all
  | "no-direct-io" -> Some Direct_io
  | "poly-compare-record" -> Some Poly_compare_record
  | "float-equal" -> Some Float_equal
  | "poly-order" -> Some Poly_order
  | "toplevel-lazy" -> Some Toplevel_lazy
  | _ -> None

let rule_doc = function
  | Obj_magic ->
    "Obj.magic defeats the type system; PR 2 removed an unsound heap dummy \
     built on it"
  | Bare_unix_io ->
    "bare Unix.read/write/single_write is EINTR- and short-write-unsafe; use \
     Protocol.write_all / Protocol.read_exact"
  | Naked_mutex_lock ->
    "a naked Mutex.lock leaks the mutex if the critical section raises; use \
     Tdmd_prelude.Locked.with_lock"
  | Catch_all ->
    "try ... with _ -> swallows Out_of_memory/Stack_overflow and poisons \
     crash-safety reasoning; match the exceptions you mean"
  | Direct_io ->
    "no direct stdout/stderr in lib/; telemetry flows through Tdmd_obs"
  | Poly_compare_record ->
    "polymorphic =/compare on instance/placement/graph/flow records is \
     allocation-heavy and order-fragile in hot paths; use a dedicated equal"
  | Float_equal ->
    "= against a float literal; use Float.equal or an explicit tolerance"
  | Poly_order ->
    "Stdlib's min, max and compare are polymorphic: without flambda, \
     ocamlopt compiles min at type int to a call to camlStdlib.min, which \
     compares through caml_lessequal, where Int.min is one integer \
     compare; use Int.min, Int.max, Int.compare or an explicit order"
  | Toplevel_lazy ->
    "a module-level lazy is forced by whichever domain reads it first, and \
     in OCaml 5 two domains forcing it at once raise \
     CamlinternalLazy.Undefined: Crc32's lazy table did, when shards \
     replayed their journals in parallel; build the value at module init"

type diagnostic = K.diagnostic = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

let compare_diagnostic = K.compare_diagnostic
let to_string = K.to_string

(* ------------------------------------------------------------------ *)
(* AST checks                                                          *)
(* ------------------------------------------------------------------ *)

let flatten_lid = K.flatten_lid
let ends_with = K.ends_with

(* Identifier-name heuristic for the record-compare rule: strip
   trailing digits, primes and underscores, then an optional plural
   's', and look the stem up.  [inst1], [placement'], [flows] all
   resolve to their record stem. *)
let record_stems = [ "inst"; "instance"; "placement"; "graph"; "flow"; "outcome" ]

let record_ish name =
  let n = String.lowercase_ascii name in
  let len = ref (String.length n) in
  while
    !len > 0
    && match n.[!len - 1] with '0' .. '9' | '_' | '\'' -> true | _ -> false
  do
    decr len
  done;
  let base = String.sub n 0 !len in
  let depluraled =
    if !len > 1 && n.[!len - 1] = 's' then Some (String.sub n 0 (!len - 1))
    else None
  in
  List.mem base record_stems
  || match depluraled with Some d -> List.mem d record_stems | None -> false

let ident_path (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { Asttypes.txt; _ } -> Some (flatten_lid txt)
  | _ -> None

let plain_record_ident (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { Asttypes.txt = Longident.Lident n; _ } ->
    record_ish n
  | _ -> false

let is_float_literal (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant (Parsetree.Pconst_float _) -> true
  | _ -> false

let is_catch_all_pattern (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_any -> true
  | Parsetree.Ppat_alias ({ Parsetree.ppat_desc = Parsetree.Ppat_any; _ }, _)
    ->
    true
  | _ -> false

let line_of = K.line_of

(* A lazy value, seen through the type constraints, lets and local
   opens that only lead up to it. *)
let rec lazy_value (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_lazy _ -> true
  | Parsetree.Pexp_apply (f, _) -> (
    match ident_path f with
    | Some path -> ends_with path [ "Lazy"; "from_fun" ]
    | None -> false)
  | Parsetree.Pexp_constraint (e, _)
  | Parsetree.Pexp_let (_, _, e)
  | Parsetree.Pexp_open (_, e) ->
    lazy_value e
  | _ -> false

(* Value bindings evaluated once per module: the structure's own and
   those of the submodules it defines.  Expressions are not entered, so
   a lazy made per call (inside a function, or a [let module] in one)
   is not module-level. *)
let rec module_bindings (structure : Parsetree.structure) =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) -> vbs
      | Parsetree.Pstr_module mb -> submodule_bindings mb.Parsetree.pmb_expr
      | _ -> [])
    structure

and submodule_bindings (me : Parsetree.module_expr) =
  match me.Parsetree.pmod_desc with
  | Parsetree.Pmod_structure s -> module_bindings s
  | Parsetree.Pmod_constraint (me, _) -> submodule_bindings me
  | _ -> []

let collect ~rules ~file ast =
  let out = ref [] in
  let enabled r = List.mem r rules in
  let add r loc message =
    out := { file; line = line_of loc; rule = rule_id r; message } :: !out
  in
  let check_ident loc path =
    if enabled Obj_magic && ends_with path [ "Obj"; "magic" ] then
      add Obj_magic loc "Obj.magic is banned (unsound; see PR 2's heap dummy)";
    if
      enabled Bare_unix_io
      && (ends_with path [ "Unix"; "read" ]
         || ends_with path [ "Unix"; "write" ]
         || ends_with path [ "Unix"; "single_write" ])
    then
      add Bare_unix_io loc
        (Printf.sprintf
           "bare %s is EINTR/short-write-unsafe; use Protocol.write_all / \
            Protocol.read_exact"
           (String.concat "." path));
    if enabled Poly_order then begin
      match path with
      | [ (("min" | "max" | "compare") as name) ]
      | [ "Stdlib"; (("min" | "max" | "compare") as name) ] ->
        add Poly_order loc
          (Printf.sprintf
             "polymorphic %s compiles to a runtime call; use Int.%s or an \
              explicit order"
             (String.concat "." path) name)
      | _ -> ()
    end;
    if enabled Naked_mutex_lock && ends_with path [ "Mutex"; "lock" ] then
      add Naked_mutex_lock loc
        "naked Mutex.lock leaks the mutex on exceptions; use \
         Tdmd_prelude.Locked.with_lock";
    if enabled Direct_io then begin
      let direct =
        match path with
        | [ "print_endline" ]
        | [ "Stdlib"; "print_endline" ]
        | [ "prerr_endline" ]
        | [ "Stdlib"; "prerr_endline" ]
        | [ "print_string" ]
        | [ "Stdlib"; "print_string" ]
        | [ "prerr_string" ]
        | [ "Stdlib"; "prerr_string" ]
        | [ "print_newline" ]
        | [ "Stdlib"; "print_newline" ]
        | [ "print_int" ]
        | [ "Stdlib"; "print_int" ]
        | [ "print_float" ]
        | [ "Stdlib"; "print_float" ]
        | [ "print_char" ]
        | [ "Stdlib"; "print_char" ] ->
          true
        | _ ->
          ends_with path [ "Printf"; "printf" ]
          || ends_with path [ "Printf"; "eprintf" ]
          || ends_with path [ "Format"; "printf" ]
          || ends_with path [ "Format"; "eprintf" ]
      in
      if direct then
        add Direct_io loc
          (Printf.sprintf "%s in lib/: telemetry must flow through Tdmd_obs"
             (String.concat "." path))
    end
  in
  let check_apply loc f args =
    match ident_path f with
    | None -> ()
    | Some path ->
      let head = match List.rev path with o :: _ -> o | [] -> "" in
      let operands = List.map snd args in
      if
        enabled Float_equal
        && (head = "=" || head = "<>" || head = "==" || head = "!=")
        && List.exists is_float_literal operands
      then
        add Float_equal loc
          (Printf.sprintf
             "(%s) against a float literal; use Float.equal or an explicit \
              tolerance"
             head);
      if
        enabled Poly_compare_record
        && (head = "=" || head = "<>"
           || path = [ "compare" ]
           || path = [ "Stdlib"; "compare" ])
        && List.exists plain_record_ident operands
      then
        add Poly_compare_record loc
          (Printf.sprintf
             "polymorphic %s on an instance/placement/graph/flow value; use a \
              dedicated equal/compare"
             (String.concat "." path))
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      Ast_iterator.expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { Asttypes.txt; _ } ->
            check_ident e.Parsetree.pexp_loc (flatten_lid txt)
          | Parsetree.Pexp_apply (f, args) ->
            check_apply e.Parsetree.pexp_loc f args
          | Parsetree.Pexp_try (_, cases) ->
            if enabled Catch_all then
              List.iter
                (fun (c : Parsetree.case) ->
                  if
                    is_catch_all_pattern c.Parsetree.pc_lhs
                    && c.Parsetree.pc_guard = None
                  then
                    add Catch_all c.Parsetree.pc_lhs.Parsetree.ppat_loc
                      "catch-all handler swallows \
                       Out_of_memory/Stack_overflow; match the exceptions \
                       you mean and re-raise the rest")
                cases
          | Parsetree.Pexp_match (_, cases) ->
            if enabled Catch_all then
              List.iter
                (fun (c : Parsetree.case) ->
                  match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
                  | Parsetree.Ppat_exception p
                    when is_catch_all_pattern p && c.Parsetree.pc_guard = None
                    ->
                    add Catch_all p.Parsetree.ppat_loc
                      "catch-all exception case swallows \
                       Out_of_memory/Stack_overflow; match the exceptions \
                       you mean"
                  | _ -> ())
                cases
          | _ -> ());
          Ast_iterator.default_iterator.Ast_iterator.expr it e);
    }
  in
  K.iter_ast iter ast;
  (match ast with
  | K.Impl structure when enabled Toplevel_lazy ->
    List.iter
      (fun (vb : Parsetree.value_binding) ->
        if lazy_value vb.Parsetree.pvb_expr then
          add Toplevel_lazy vb.Parsetree.pvb_loc
            "module-level lazy: two domains forcing it at once raise \
             CamlinternalLazy.Undefined; build it at module init")
      (module_bindings structure)
  | K.Impl _ | K.Intf _ -> ());
  !out

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let marker = "tdmd-lint"
let known_rule id = rule_of_id id <> None

let parse_string ~file source =
  match K.parse_ast ~file source with
  | K.Impl s -> s
  | K.Intf _ -> []

let lint_source ?(rules = all_rules) ~file source =
  match K.parse_ast ~file source with
  | exception exn -> [ K.parse_error_diagnostic ~file exn ]
  | ast ->
    let raw = collect ~rules ~file ast in
    let table, sup_errors =
      K.scan_suppressions ~marker ~known_rule ~file source
    in
    let kept =
      List.filter (fun d -> not (K.suppressed table d.rule d.line)) raw
    in
    List.sort compare_diagnostic (sup_errors @ kept)

let read_file = K.read_file
let lint_file ?rules path = lint_source ?rules ~file:path (read_file path)

(* ------------------------------------------------------------------ *)
(* Per-path rule policy                                                *)
(* ------------------------------------------------------------------ *)

(* The repo's scoping contract:
   - obj-magic, float-equal: everywhere;
   - bare-unix-io: everywhere except the EINTR-safe wrappers themselves
     (lib/server/protocol.ml and its interface);
   - naked-mutex-lock: everywhere except the combinator's own
     implementation (lib/prelude/locked.ml);
   - no-direct-io: lib/ only (bin/bench/test own their stdout);
   - catch-all: everywhere except test/ (tests may shrug at cleanup);
   - poly-compare-record, poly-order: lib/core/ hot paths only;
   - toplevel-lazy: lib/ only (any worker domain may run library code;
     bin/bench/test own their domains).
   An [.mli] inherits the policy of its implementation. *)
let rules_for_path path =
  let path =
    if Filename.check_suffix path ".mli" then Filename.chop_suffix path "i"
    else path
  in
  let under dir =
    let p = dir ^ "/" in
    String.length path >= String.length p
    && String.sub path 0 (String.length p) = p
  in
  List.filter
    (fun r ->
      match r with
      | Obj_magic | Float_equal -> true
      | Bare_unix_io -> path <> "lib/server/protocol.ml"
      | Naked_mutex_lock -> path <> "lib/prelude/locked.ml"
      | Direct_io | Toplevel_lazy -> under "lib"
      | Catch_all -> not (under "test")
      | Poly_compare_record | Poly_order -> under "lib/core")
    all_rules
