(* tdmd-analyze: whole-program static analysis over the repo's sources
   (compiler-libs only, like tdmd-lint; the shared suppression / report
   machinery lives in tools/kit).

   Where tdmd-lint checks one file at a time, this pass parses every
   .ml/.mli once, builds a per-module value-level call graph, and runs
   four analyses:

   - lock-order: every [Locked.with_lock] / [Mutex.lock] site is an
     acquisition of a lock class (Module.field); held-lock sets
     propagate through the call graph, acquisitions while holding
     another lock become order edges, and any cycle in the resulting
     order graph is a potential deadlock, reported with the full
     witness path ("A.f acquires l2 at file:line while holding l1").
     Acquiring a lock you already hold is reported too (OCaml's Mutex
     is not reentrant).  Closures passed to Thread.create /
     Domain.spawn / Pool.submit run on a fresh thread, so traversal
     resets the held set for them — spawning while holding a lock is
     not nesting.

   - domain-escape: mutable state (record mutable fields, refs, arrays,
     Hashtbl/Queue/Buffer/...) mutated inside a closure passed to a
     spawn primitive must be under a [Locked.with_lock] (or a detected
     lock wrapper) or go through [Atomic]; this is the static
     counterpart of the Parallel.map race PR 2's review caught by
     hand.  The pass follows calls to same-module functions from the
     closure; cross-module callees are trusted to guard their own
     state.

   - registry consistency: wire op names, wire error codes, fault
     points and telemetry counter names are string literals scattered
     across protocol.ml / session.ml / client.ml / tests; each use must
     appear in the single declared registry (tools/analyze/registry.txt)
     and every registry entry must still be referenced somewhere, so
     the two can never drift apart silently.

   - unreached exports: every [val] a lib/ interface exports (nested
     signatures included) must be reachable from the programs the
     project runs.  The roots are every identifier named anywhere in a
     bin/ or bench/ file and in a lib module's initialisers; a reached
     lib binding reaches every identifier in its body.  An export only
     tests or examples call is reported: it is deleted, moved to test/
     or examples/, or made private.

   Everything is syntactic (Parsetree + Ast_iterator, no typing
   environment): lock identity is "innermost module . field name",
   calls resolve by module-qualified value name, and the fixture corpus
   under test/analyze_fixtures pins down exactly what each rule does
   and does not flag. *)

module K = Check_kit
open Parsetree

(* ------------------------------------------------------------------ *)
(* Rule catalogue                                                      *)
(* ------------------------------------------------------------------ *)

let rule_lock = "lock-order"
let rule_escape = "domain-escape"
let rule_op = "wire-op"
let rule_code = "wire-code"
let rule_fault = "fault-point"
let rule_counter = "counter-name"
let rule_unreached = "unreached-export"

let rule_catalogue =
  [
    ( rule_lock,
      "cycle (or re-entry) in the whole-program lock-acquisition order \
       graph: a potential deadlock, reported with its witness path" );
    ( rule_escape,
      "mutable state mutated inside a closure passed to Thread.create / \
       Domain.spawn / Pool.submit without with_lock or Atomic" );
    (rule_op, "wire op literal that is not in the declared registry");
    (rule_code, "wire error-code literal that is not in the declared registry");
    ( rule_fault,
      "fault point passed or injected that is not in the declared registry, \
       or registered but never passed by a code site" );
    ( rule_counter,
      "telemetry counter bumped or read that is not in the declared \
       registry, or registered but never touched" );
    ( rule_unreached,
      "value exported by a lib/ interface that no bin/ or bench/ code \
       reaches through the call graph" );
  ]

let known_rule id = List.mem_assoc id rule_catalogue

(* ------------------------------------------------------------------ *)
(* Registry file                                                       *)
(* ------------------------------------------------------------------ *)

module Registry = struct
  type entry = { kind : string; name : string; line : int }
  type t = { path : string; entries : entry list }

  let kinds = [ "op"; "code"; "fault"; "counter" ]
  let empty = { path = ""; entries = [] }

  (* One declaration per line: "KIND NAME", '#' comments and blank
     lines ignored. *)
  let load path =
    let entries = ref [] and errors = ref [] in
    List.iteri
      (fun i raw ->
        let line = i + 1 in
        let s = String.trim raw in
        if s = "" || s.[0] = '#' then ()
        else
          match String.index_opt s ' ' with
          | Some sp
            when List.mem (String.sub s 0 sp) kinds
                 && String.trim
                      (String.sub s (sp + 1) (String.length s - sp - 1))
                    <> "" ->
            entries :=
              {
                kind = String.sub s 0 sp;
                name =
                  String.trim (String.sub s (sp + 1) (String.length s - sp - 1));
                line;
              }
              :: !entries
          | _ ->
            errors :=
              {
                K.file = path;
                line;
                rule = "registry";
                message =
                  Printf.sprintf
                    "malformed registry line %S (expected \"KIND NAME\" with \
                     KIND one of %s)"
                    s
                    (String.concat "/" kinds);
              }
              :: !errors)
      (String.split_on_char '\n' (K.read_file path));
    ({ path; entries = List.rev !entries }, List.rev !errors)

  let mem t kind name =
    List.exists (fun e -> e.kind = kind && e.name = name) t.entries
end

(* ------------------------------------------------------------------ *)
(* Parsed files, module environment, call-graph bindings               *)
(* ------------------------------------------------------------------ *)

type pfile = {
  p_path : string;
  p_source : string;
  p_ast : K.ast;
  p_mod : string;  (* capitalized basename: lib/server/engine.ml -> Engine *)
}

type binding = {
  b_file : string;  (* path, for same-module checks *)
  b_mod : string;  (* innermost module segment, e.g. "Pool" *)
  b_name : string;
  b_expr : expression;
}

type genv = {
  bindings : (string * string, binding) Hashtbl.t;
  (* module-local lock wrappers, e.g. Session.locked / Server.with_tel:
     (mod, name) -> lock class their closure argument runs under *)
  wrappers : (string * string, string) Hashtbl.t;
  (* per file path: local module aliases, e.g. "Tel" -> "Telemetry" *)
  aliases : (string, (string, string) Hashtbl.t) Hashtbl.t;
}

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let contains_sub s sub = K.find_sub s sub 0 <> None
let is_fixture path = contains_sub path "analyze_fixtures"

let under dir path =
  let p = dir ^ "/" in
  String.length path >= String.length p
  && String.sub path 0 (String.length p) = p

(* Scoping: concurrency rules skip test/ (ad-hoc test threads are not
   production locking discipline) except the analyzer's own fixtures;
   registry collection skips tools/ (the analyzers' sources quote rule
   names and grammar fragments, not live wire strings) and test/
   (tests deliberately send unknown ops and bump scratch counters to
   exercise the error paths the registry exists to keep honest). *)
let lock_scope path = is_fixture path || not (under "test" path)
let escape_scope path = is_fixture path || under "lib" path

let registry_scope path =
  is_fixture path || not (under "tools" path || under "test" path)

let last_seg path = match List.rev path with s :: _ -> s | [] -> ""

let ident_path (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { Asttypes.txt; _ } -> Some (K.flatten_lid txt)
  | _ -> None

let string_const (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

let pat_vars p =
  let acc = ref [] in
  let iter =
    {
      Ast_iterator.default_iterator with
      Ast_iterator.pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { Asttypes.txt; _ } -> acc := txt :: !acc
          | Ppat_alias (_, { Asttypes.txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.Ast_iterator.pat it p);
    }
  in
  iter.Ast_iterator.pat iter p;
  !acc

let rec peel_params acc e =
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
    let name =
      match pat.ppat_desc with
      | Ppat_var { Asttypes.txt; _ } -> Some txt
      | _ -> None
    in
    peel_params (acc @ [ name ]) body
  | _ -> (acc, e)

let rec module_items me =
  match me.pmod_desc with
  | Pmod_structure items -> Some items
  | Pmod_constraint (me, _) -> module_items me
  | _ -> None

let build_genv pfiles =
  let g =
    {
      bindings = Hashtbl.create 512;
      wrappers = Hashtbl.create 8;
      aliases = Hashtbl.create 32;
    }
  in
  let add_binding b =
    let key = (b.b_mod, b.b_name) in
    (* On cross-file collisions (two modules named Main, two submodules
       named Config) prefer lib/: that is where the shared state and
       locks the analyses care about live. *)
    match Hashtbl.find_opt g.bindings key with
    | Some old when under "lib" old.b_file && not (under "lib" b.b_file) -> ()
    | _ -> Hashtbl.replace g.bindings key b
  in
  List.iter
    (fun pf ->
      let amap = Hashtbl.create 8 in
      Hashtbl.replace g.aliases pf.p_path amap;
      match pf.p_ast with
      | K.Intf _ -> ()
      | K.Impl structure ->
        let rec go modseg items =
          List.iter
            (fun item ->
              match item.pstr_desc with
              | Pstr_value (_, vbs) ->
                List.iter
                  (fun vb ->
                    match vb.pvb_pat.ppat_desc with
                    | Ppat_var { Asttypes.txt; _ } ->
                      add_binding
                        {
                          b_file = pf.p_path;
                          b_mod = modseg;
                          b_name = txt;
                          b_expr = vb.pvb_expr;
                        }
                    | _ -> ())
                  vbs
              | Pstr_module mb -> (
                match (mb.pmb_name.Asttypes.txt, mb.pmb_expr.pmod_desc) with
                | Some name, Pmod_ident { Asttypes.txt; _ } ->
                  (* module Tel = Tdmd_obs.Telemetry: calls through the
                     alias resolve to the target's last segment. *)
                  Hashtbl.replace amap name (last_seg (K.flatten_lid txt))
                | Some name, _ -> (
                  match module_items mb.pmb_expr with
                  | Some items -> go name items
                  | None -> ())
                | None, _ -> ())
              | _ -> ())
            items
        in
        go pf.p_mod structure;
        (* [let module P = Tdmd_server.Protocol in ...] aliases too, for
           the rest of the file. *)
        let local =
          {
            Ast_iterator.default_iterator with
            Ast_iterator.expr =
              (fun it e ->
                (match e.pexp_desc with
                | Pexp_letmodule
                    ( { Asttypes.txt = Some name; _ },
                      { pmod_desc = Pmod_ident { Asttypes.txt; _ }; _ },
                      _ ) ->
                  Hashtbl.replace amap name (last_seg (K.flatten_lid txt))
                | _ -> ());
                Ast_iterator.default_iterator.Ast_iterator.expr it e);
          }
        in
        local.Ast_iterator.structure local structure)
    pfiles;
  (* Lock-wrapper detection: a binding whose whole body is
     [with_lock <lock-of-param> k] where [k] is a function parameter
     (Session.locked) or a lambda immediately applying one
     (Server.with_tel).  Call sites then count as acquisitions of the
     wrapped lock, with their closure argument running under it. *)
  Hashtbl.iter
    (fun (bmod, bname) b ->
      let params, body = peel_params [] b.b_expr in
      let param_names = List.filter_map Fun.id params in
      match body.pexp_desc with
      | Pexp_apply (f, args) when List.length args >= 2 -> (
        match ident_path f with
        | Some path when K.ends_with path [ "Locked"; "with_lock" ] -> (
          let is_param e =
            match e.pexp_desc with
            | Pexp_ident { Asttypes.txt = Longident.Lident n; _ } ->
              List.mem n param_names
            | _ -> false
          in
          let applies_param e =
            match e.pexp_desc with
            | Pexp_fun (_, _, _, inner) -> (
              match inner.pexp_desc with
              | Pexp_apply (h, _) -> is_param h
              | _ -> false)
            | _ -> is_param e
          in
          match List.map snd args with
          | lock_arg :: rest when List.exists applies_param rest ->
            let lock_name =
              let leaf e =
                match e.pexp_desc with
                | Pexp_field (_, { Asttypes.txt; _ }) ->
                  last_seg (K.flatten_lid txt)
                | Pexp_ident { Asttypes.txt; _ } ->
                  last_seg (K.flatten_lid txt)
                | _ -> "<lock>"
              in
              leaf lock_arg
            in
            Hashtbl.replace g.wrappers (bmod, bname)
              (b.b_mod ^ "." ^ lock_name)
          | _ -> ())
        | _ -> ())
      | _ -> ())
    g.bindings;
  g

let aliases_of g path =
  match Hashtbl.find_opt g.aliases path with
  | Some t -> t
  | None -> Hashtbl.create 1

let resolve_name ~amap ~cur_mod path =
  match List.rev path with
  | [] -> None
  | name :: rev ->
    let modseg =
      match rev with
      | [] -> cur_mod
      | m :: _ -> (
        match Hashtbl.find_opt amap m with Some r -> r | None -> m)
    in
    Some (modseg, name)

let is_with_lock path = K.ends_with path [ "Locked"; "with_lock" ]
let is_mutex_lock path = K.ends_with path [ "Mutex"; "lock" ]

let spawn_name path =
  if K.ends_with path [ "Thread"; "create" ] then Some "Thread.create"
  else if K.ends_with path [ "Domain"; "spawn" ] then Some "Domain.spawn"
  else if K.ends_with path [ "Pool"; "submit" ] then Some "Pool.submit"
  else None

let lock_class ~cur_mod e =
  let rec leaf e =
    match e.pexp_desc with
    | Pexp_field (_, { Asttypes.txt; _ }) -> last_seg (K.flatten_lid txt)
    | Pexp_ident { Asttypes.txt; _ } -> last_seg (K.flatten_lid txt)
    | Pexp_constraint (e, _) -> leaf e
    | _ -> "<lock>"
  in
  cur_mod ^ "." ^ leaf e

(* ------------------------------------------------------------------ *)
(* Lock-order analysis                                                 *)
(* ------------------------------------------------------------------ *)

type acq = {
  a_key : string * string;  (* enclosing top-level binding *)
  a_fn : string;  (* display: "Server.reader" *)
  a_lock : string;
  a_file : string;
  a_line : int;
  a_held : string list;
  a_spawned : bool;  (* inside a spawned closure: runs on a new thread *)
}

type callsite = {
  c_key : string * string;
  c_fn : string;
  c_target : string * string;
  c_file : string;
  c_line : int;
  c_held : string list;
  c_spawned : bool;
}

let collect_lock_facts g pf =
  let acqs = ref [] and calls = ref [] in
  match pf.p_ast with
  | K.Intf _ -> ([], [])
  | K.Impl structure ->
    let amap = aliases_of g pf.p_path in
    let held = ref [] in
    let in_spawn = ref false in
    let cur_mod = ref pf.p_mod in
    let cur_key = ref (pf.p_mod, "<top>") in
    let display () = fst !cur_key ^ "." ^ snd !cur_key in
    let iter = ref Ast_iterator.default_iterator in
    let walk e = !iter.Ast_iterator.expr !iter e in
    let expr _it e =
      match e.pexp_desc with
      | Pexp_apply (f, args) -> (
        let loc = K.line_of e.pexp_loc in
        match ident_path f with
        | None ->
          walk f;
          List.iter (fun (_, a) -> walk a) args
        | Some path -> (
          let resolved = resolve_name ~amap ~cur_mod:!cur_mod path in
          let wrapper_class =
            match resolved with
            | Some key -> Hashtbl.find_opt g.wrappers key
            | None -> None
          in
          let acquire cls =
            acqs :=
              {
                a_key = !cur_key;
                a_fn = display ();
                a_lock = cls;
                a_file = pf.p_path;
                a_line = loc;
                a_held = List.sort_uniq compare !held;
                a_spawned = !in_spawn;
              }
              :: !acqs
          in
          if is_with_lock path then begin
            (match List.map snd args with
            | lock_arg :: _ ->
              acquire (lock_class ~cur_mod:!cur_mod lock_arg)
            | [] -> ());
            (match List.map snd args with
            | lock_arg :: rest ->
              walk lock_arg;
              let cls = lock_class ~cur_mod:!cur_mod lock_arg in
              let saved = !held in
              held := cls :: saved;
              List.iter walk rest;
              held := saved
            | [] -> ())
          end
          else
            match wrapper_class with
            | Some cls ->
              acquire cls;
              let saved = !held in
              held := cls :: saved;
              List.iter (fun (_, a) -> walk a) args;
              held := saved
            | None -> (
              if is_mutex_lock path then
                (* Naked Mutex.lock (only sanctioned inside locked.ml):
                   record the acquisition for ordering, but its scope is
                   not syntactic so the held set is not extended. *)
                List.iter
                  (fun (_, a) -> acquire (lock_class ~cur_mod:!cur_mod a))
                  args;
              match spawn_name path with
              | Some _ ->
                (* The closure runs on a fresh thread holding nothing:
                   reset the held set, and mark everything inside as
                   spawned so it does not leak into this function's
                   may-acquire summary. *)
                let saved_h = !held and saved_s = !in_spawn in
                held := [];
                in_spawn := true;
                List.iter (fun (_, a) -> walk a) args;
                held := saved_h;
                in_spawn := saved_s
              | None ->
                (match resolved with
                | Some target ->
                  if Hashtbl.mem g.bindings target then
                    calls :=
                      {
                        c_key = !cur_key;
                        c_fn = display ();
                        c_target = target;
                        c_file = pf.p_path;
                        c_line = loc;
                        c_held = List.sort_uniq compare !held;
                        c_spawned = !in_spawn;
                      }
                      :: !calls
                | None -> ());
                walk f;
                List.iter (fun (_, a) -> walk a) args)))
      | _ -> Ast_iterator.default_iterator.Ast_iterator.expr !iter e
    in
    iter := { Ast_iterator.default_iterator with Ast_iterator.expr = expr };
    let rec go modseg items =
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let name =
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { Asttypes.txt; _ } -> txt
                  | _ -> "<pat>"
                in
                cur_mod := modseg;
                cur_key := (modseg, name);
                held := [];
                in_spawn := false;
                walk vb.pvb_expr)
              vbs
          | Pstr_eval (e, _) ->
            cur_mod := modseg;
            cur_key := (modseg, "<top>");
            held := [];
            in_spawn := false;
            walk e
          | Pstr_module mb -> (
            match (mb.pmb_name.Asttypes.txt, module_items mb.pmb_expr) with
            | Some name, Some sub -> go name sub
            | _ -> ())
          | _ -> ())
        items
    in
    go pf.p_mod structure;
    (List.rev !acqs, List.rev !calls)

(* may_acquire summaries: for each function, which lock classes it (or
   its non-spawned callees) may acquire, with one representative call
   chain per lock for witness printing. *)
type may = { m_path : string list; m_file : string; m_line : int }

let may_acquire acqs calls =
  let summaries : (string * string, (string * may) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let get key =
    match Hashtbl.find_opt summaries key with Some l -> l | None -> []
  in
  let add key lock m =
    let cur = get key in
    if not (List.mem_assoc lock cur) then begin
      Hashtbl.replace summaries key ((lock, m) :: cur);
      true
    end
    else false
  in
  List.iter
    (fun a ->
      if not a.a_spawned then
        ignore
          (add a.a_key a.a_lock
             { m_path = [ a.a_fn ]; m_file = a.a_file; m_line = a.a_line }))
    acqs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun c ->
        if not c.c_spawned then
          List.iter
            (fun (lock, m) ->
              if
                add c.c_key lock
                  { m with m_path = c.c_fn :: m.m_path }
              then changed := true)
            (get c.c_target))
      calls
  done;
  summaries

type edge = {
  e_from : string;
  e_to : string;
  e_text : string;
  e_file : string;
  e_line : int;
}

let lock_order_diagnostics acqs calls =
  let summaries = may_acquire acqs calls in
  let edges : (string * string, edge) Hashtbl.t = Hashtbl.create 32 in
  let self : (string, edge) Hashtbl.t = Hashtbl.create 8 in
  let consider e =
    let better old = (e.e_file, e.e_line, e.e_text) < (old.e_file, old.e_line, old.e_text) in
    if e.e_from = e.e_to then (
      match Hashtbl.find_opt self e.e_from with
      | Some old when not (better old) -> ()
      | _ -> Hashtbl.replace self e.e_from e)
    else
      match Hashtbl.find_opt edges (e.e_from, e.e_to) with
      | Some old when not (better old) -> ()
      | _ -> Hashtbl.replace edges (e.e_from, e.e_to) e
  in
  List.iter
    (fun a ->
      List.iter
        (fun h ->
          consider
            {
              e_from = h;
              e_to = a.a_lock;
              e_text =
                Printf.sprintf "%s acquires %s at %s:%d while holding %s"
                  a.a_fn a.a_lock a.a_file a.a_line h;
              e_file = a.a_file;
              e_line = a.a_line;
            })
        a.a_held)
    acqs;
  List.iter
    (fun c ->
      if c.c_held <> [] then
        match Hashtbl.find_opt summaries c.c_target with
        | None -> ()
        | Some locks ->
          List.iter
            (fun (lock, m) ->
              List.iter
                (fun h ->
                  consider
                    {
                      e_from = h;
                      e_to = lock;
                      e_text =
                        Printf.sprintf
                          "%s calls %s at %s:%d while holding %s; %s \
                           acquires %s at %s:%d"
                          c.c_fn
                          (fst c.c_target ^ "." ^ snd c.c_target)
                          c.c_file c.c_line h
                          (String.concat " -> " m.m_path)
                          lock m.m_file m.m_line;
                      e_file = c.c_file;
                      e_line = c.c_line;
                    })
                c.c_held)
            locks)
    calls;
  let out = ref [] in
  (* Re-entry: acquiring (directly or through a callee) a lock class
     already held.  OCaml's Mutex self-deadlocks on re-entry. *)
  List.iter
    (fun (_, e) ->
      out :=
        {
          K.file = e.e_file;
          line = e.e_line;
          rule = rule_lock;
          message =
            Printf.sprintf
              "lock %s is acquired while already held (Mutex is not \
               reentrant): %s"
              e.e_from e.e_text;
        }
        :: !out)
    (List.sort compare (Hashtbl.fold (fun k e l -> (k, e) :: l) self []));
  (* Cycles among distinct lock classes: Tarjan SCCs over the order
     graph, then one diagnostic per cyclic component with the witness
     of every edge along a deterministic cycle through it. *)
  let edge_list =
    List.sort compare (Hashtbl.fold (fun k e l -> (k, e) :: l) edges [])
  in
  let nodes =
    List.sort_uniq compare
      (List.concat_map (fun ((a, b), _) -> [ a; b ]) edge_list)
  in
  let succs n =
    List.filter_map
      (fun ((a, b), _) -> if a = n then Some b else None)
      edge_list
  in
  let index = Hashtbl.create 16
  and lowlink = Hashtbl.create 16
  and on_stack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      let scc = pop [] in
      if List.length scc > 1 then sccs := List.sort compare scc :: !sccs
    end
  in
  List.iter (fun n -> if not (Hashtbl.mem index n) then strongconnect n) nodes;
  List.iter
    (fun scc ->
      let in_scc n = List.mem n scc in
      let start = List.hd scc in
      (* Shortest deterministic cycle through [start] within the SCC:
         BFS from its smallest in-SCC successor back to start. *)
      let rec bfs frontier parents =
        match frontier with
        | [] -> None
        | n :: rest ->
          if n = start then Some parents
          else
            let nexts =
              List.sort_uniq compare
                (List.filter
                   (fun w -> in_scc w && not (List.mem_assoc w parents))
                   (succs n))
            in
            let parents = parents @ List.map (fun w -> (w, n)) nexts in
            bfs (rest @ nexts) parents
      in
      let cycle =
        match List.sort compare (List.filter in_scc (succs start)) with
        | [] -> []
        | first_hop :: _ -> (
          match bfs [ first_hop ] [ (first_hop, start) ] with
          | None -> []
          | Some parents ->
            (* start was re-discovered with some parent; walk the parent
               chain back to the original start to lay out the cycle. *)
            let rec back n acc =
              if n = start && acc <> [] then n :: acc
              else back (List.assoc n parents) (n :: acc)
            in
            back start [])
      in
      let rec pairs = function
        | a :: (b :: _ as rest) -> ((a, b) :: pairs rest)
        | _ -> []
      in
      let cycle_edges =
        List.filter_map (fun k -> Hashtbl.find_opt edges k) (pairs cycle)
      in
      match cycle_edges with
      | [] -> ()
      | first :: _ ->
        out :=
          {
            K.file = first.e_file;
            line = first.e_line;
            rule = rule_lock;
            message =
              Printf.sprintf "lock-order cycle: %s; %s"
                (String.concat " -> " cycle)
                (String.concat "; "
                   (List.map (fun e -> e.e_text) cycle_edges));
          }
          :: !out)
    (List.sort compare !sccs);
  !out

(* ------------------------------------------------------------------ *)
(* Domain-escape analysis                                              *)
(* ------------------------------------------------------------------ *)

let mutators =
  [
    ([ "Hashtbl" ], [ "replace"; "add"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
    ([ "Queue" ], [ "push"; "add"; "pop"; "take"; "clear"; "transfer" ]);
    ([ "Stack" ], [ "push"; "pop"; "clear" ]);
    ([ "Buffer" ],
     [ "add_char"; "add_string"; "add_bytes"; "add_subbytes"; "clear"; "reset" ]);
    ([ "Array" ], [ "set"; "fill"; "blit"; "sort" ]);
    ([ "Bytes" ], [ "set"; "fill"; "blit" ]);
  ]

let mutator_target path args =
  let first_nolabel () =
    List.find_map
      (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
      args
  in
  if path = [ ":=" ] || K.ends_with path [ "Stdlib"; ":=" ] then first_nolabel ()
  else if path = [ "incr" ] || path = [ "decr" ]
          || K.ends_with path [ "Stdlib"; "incr" ]
          || K.ends_with path [ "Stdlib"; "decr" ]
  then first_nolabel ()
  else if
    List.exists
      (fun (m, fns) ->
        List.exists (fun fn -> K.ends_with path (m @ [ fn ])) fns)
      mutators
  then first_nolabel ()
  else None

(* Root variable of an lvalue: [t.conns] -> t, [results.(i)] -> results,
   [Globals.table] -> always free (module-level state). *)
let rec root_var (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { Asttypes.txt = Longident.Lident n; _ } -> Some (Some n, n)
  | Pexp_ident { Asttypes.txt; _ } ->
    Some (None, String.concat "." (K.flatten_lid txt))
  | Pexp_field (e, _) -> root_var e
  | Pexp_constraint (e, _) -> root_var e
  | Pexp_apply (f, args) -> (
    match ident_path f with
    | Some p
      when K.ends_with p [ "Array"; "get" ] || K.ends_with p [ "Bytes"; "get" ]
      -> (
      match args with (_, a) :: _ -> root_var a | [] -> None)
    | _ -> None)
  | _ -> None

let escape_diagnostics g pf =
  match pf.p_ast with
  | K.Intf _ -> []
  | K.Impl structure ->
    let amap = aliases_of g pf.p_path in
    let out = ref [] in
    let seen = Hashtbl.create 16 in
    let emit ~line ~target ~spawn_desc =
      let key = (pf.p_path, line, target) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        out :=
          {
            K.file = pf.p_path;
            line;
            rule = rule_escape;
            message =
              Printf.sprintf
                "%s is mutated inside a closure passed to %s without \
                 with_lock; shared state crossing a domain/thread boundary \
                 needs Locked.with_lock or Atomic"
                target spawn_desc;
          }
          :: !out
      end
    in
    (* Walk a closure that escapes to another thread.  [bound] tracks
       names bound inside the closure (locals are thread-private);
       [guard] counts enclosing with_lock sections; same-module callees
       are followed (their params stay unbound: arguments at the spawn
       site are exactly the shared state we care about). *)
    let check_closure ~spawn_desc ~cur_mod0 root_expr ~bound0 =
      let bound = ref bound0 in
      let guard = ref 0 in
      let cur_mod = ref cur_mod0 in
      let visited = Hashtbl.create 16 in
      let iter = ref Ast_iterator.default_iterator in
      let walk e = !iter.Ast_iterator.expr !iter e in
      let with_bound names f =
        let saved = !bound in
        bound := names @ saved;
        f ();
        bound := saved
      in
      let is_free = function
        | Some n, _ -> not (List.mem n !bound)
        | None, _ -> true
      in
      let walk_case (c : case) =
        with_bound (pat_vars c.pc_lhs) (fun () ->
            Option.iter walk c.pc_guard;
            walk c.pc_rhs)
      in
      let expr _it e =
        match e.pexp_desc with
        | Pexp_fun (_, default, pat, body) ->
          Option.iter walk default;
          with_bound (pat_vars pat) (fun () -> walk body)
        | Pexp_function cases -> List.iter walk_case cases
        | Pexp_let (_, vbs, body) ->
          let names = List.concat_map (fun vb -> pat_vars vb.pvb_pat) vbs in
          with_bound names (fun () ->
              List.iter (fun vb -> walk vb.pvb_expr) vbs;
              walk body)
        | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
          walk scrut;
          List.iter walk_case cases
        | Pexp_for (pat, lo, hi, _, body) ->
          walk lo;
          walk hi;
          with_bound (pat_vars pat) (fun () -> walk body)
        | Pexp_setfield (obj, _, v) ->
          (match root_var obj with
          | Some r when !guard = 0 && is_free r ->
            emit ~line:(K.line_of e.pexp_loc) ~target:(snd r) ~spawn_desc
          | _ -> ());
          walk obj;
          walk v
        | Pexp_apply (f, args) -> (
          match ident_path f with
          | None ->
            walk f;
            List.iter (fun (_, a) -> walk a) args
          | Some path -> (
            (match mutator_target path args with
            | Some lv -> (
              match root_var lv with
              | Some r when !guard = 0 && is_free r ->
                emit ~line:(K.line_of e.pexp_loc) ~target:(snd r) ~spawn_desc
              | _ -> ())
            | None -> ());
            let resolved = resolve_name ~amap ~cur_mod:!cur_mod path in
            let wrapper =
              match resolved with
              | Some key -> Hashtbl.mem g.wrappers key
              | None -> false
            in
            if is_with_lock path || wrapper then begin
              incr guard;
              List.iter (fun (_, a) -> walk a) args;
              decr guard
            end
            else
              match spawn_name path with
              | Some _ ->
                (* A spawn inside the closure starts yet another thread
                   that holds none of our locks. *)
                let saved = !guard in
                guard := 0;
                List.iter (fun (_, a) -> walk a) args;
                guard := saved
              | None ->
                (match resolved with
                | Some ((m, n) as key) -> (
                  match Hashtbl.find_opt g.bindings key with
                  | Some b
                    when b.b_file = pf.p_path
                         && not (Hashtbl.mem visited (m, n, !guard)) ->
                    Hashtbl.replace visited (m, n, !guard) ();
                    let saved_mod = !cur_mod and saved_bound = !bound in
                    cur_mod := b.b_mod;
                    bound := [];
                    let _, body = peel_params [] b.b_expr in
                    walk body;
                    cur_mod := saved_mod;
                    bound := saved_bound
                  | _ -> ())
                | None -> ());
                walk f;
                List.iter (fun (_, a) -> walk a) args))
        | _ -> Ast_iterator.default_iterator.Ast_iterator.expr !iter e
      in
      iter := { Ast_iterator.default_iterator with Ast_iterator.expr = expr };
      walk root_expr
    in
    (* Find every spawn site; a let-tracking walker so [Domain.spawn
       worker] resolves when [worker] is a local lambda. *)
    let locals = ref [] in
    let cur_mod = ref pf.p_mod in
    let scan = ref Ast_iterator.default_iterator in
    let walk e = !scan.Ast_iterator.expr !scan e in
    let expr _it e =
      match e.pexp_desc with
      | Pexp_let (_, vbs, body) ->
        List.iter (fun vb -> walk vb.pvb_expr) vbs;
        let saved = !locals in
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { Asttypes.txt; _ } ->
              locals := (txt, vb.pvb_expr) :: !locals
            | _ -> ())
          vbs;
        walk body;
        locals := saved
      | Pexp_apply (f, args) -> (
        walk f;
        List.iter (fun (_, a) -> walk a) args;
        match ident_path f with
        | Some path -> (
          match spawn_name path with
          | Some prim ->
            let spawn_desc =
              Printf.sprintf "%s at %s:%d" prim pf.p_path
                (K.line_of e.pexp_loc)
            in
            List.iter
              (fun (_, a) ->
                match a.pexp_desc with
                | Pexp_fun _ | Pexp_function _ ->
                  check_closure ~spawn_desc ~cur_mod0:!cur_mod a ~bound0:[]
                | Pexp_ident { Asttypes.txt = Longident.Lident n; _ } -> (
                  match List.assoc_opt n !locals with
                  | Some le ->
                    (* local lambda: its params come from the spawn
                       primitive, so they are thread-private *)
                    check_closure ~spawn_desc ~cur_mod0:!cur_mod le ~bound0:[]
                  | None -> (
                    match
                      resolve_name ~amap ~cur_mod:!cur_mod [ n ]
                      |> Option.map (Hashtbl.find_opt g.bindings)
                    with
                    | Some (Some b) when b.b_file = pf.p_path ->
                      let _, body = peel_params [] b.b_expr in
                      check_closure ~spawn_desc ~cur_mod0:b.b_mod body
                        ~bound0:[]
                    | _ -> ()))
                | Pexp_apply (h, _) -> (
                  (* partial application: the applied arguments are the
                     caller's state, so the callee's params stay free *)
                  match ident_path h with
                  | Some hp -> (
                    match resolve_name ~amap ~cur_mod:!cur_mod hp with
                    | Some key -> (
                      match Hashtbl.find_opt g.bindings key with
                      | Some b when b.b_file = pf.p_path ->
                        let _, body = peel_params [] b.b_expr in
                        check_closure ~spawn_desc ~cur_mod0:b.b_mod body
                          ~bound0:[]
                      | _ -> ())
                    | None -> ())
                  | None -> ())
                | _ -> ())
              args
          | None -> ())
        | None -> ())
      | _ -> Ast_iterator.default_iterator.Ast_iterator.expr !scan e
    in
    scan := { Ast_iterator.default_iterator with Ast_iterator.expr = expr };
    let rec go modseg items =
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
            cur_mod := modseg;
            locals := [];
            List.iter (fun vb -> walk vb.pvb_expr) vbs
          | Pstr_eval (e, _) ->
            cur_mod := modseg;
            locals := [];
            walk e
          | Pstr_module mb -> (
            match (mb.pmb_name.Asttypes.txt, module_items mb.pmb_expr) with
            | Some name, Some sub -> go name sub
            | _ -> ())
          | _ -> ())
        items
    in
    go pf.p_mod structure;
    List.rev !out

(* ------------------------------------------------------------------ *)
(* String-registry consistency                                         *)
(* ------------------------------------------------------------------ *)

let fault_kinds = [ "crash"; "eintr"; "short"; "corrupt"; "fail"; "die"; "delay" ]
let fault_fns = [ "hit"; "fail"; "eintr"; "clamp"; "mangle"; "fire" ]
let counter_fns = [ "count"; "gauge"; "get_count"; "counter" ]

(* "die@shard.apply:p=0.5;seed=3" -> [shard.apply].  Only dotted points
   count: the fault-grammar unit tests exercise bare one-letter points
   (p, q) that deliberately name nothing. *)
let injection_points s =
  if not (String.contains s '@') then []
  else
    String.split_on_char ';' s
    |> List.filter_map (fun seg ->
           match String.index_opt seg '@' with
           | None -> None
           | Some i ->
             let kind = String.sub seg 0 i in
             if not (List.mem kind fault_kinds) then None
             else
               let rest =
                 String.sub seg (i + 1) (String.length seg - i - 1)
               in
               let point =
                 match String.index_opt rest ':' with
                 | Some j -> String.sub rest 0 j
                 | None -> rest
               in
               if String.contains point '.' then Some point else None)

type uses = {
  mutable u_ops : (string * string * int) list;
  mutable u_codes : (string * string * int) list;
  mutable u_faults : (string * string * int) list;  (* declared by code *)
  mutable u_injections : (string * string * int) list;
  mutable u_counters : (string * string * int) list;
}

let rec pattern_strings p =
  match p.ppat_desc with
  | Ppat_constant (Pconst_string (s, _, _)) -> [ s ]
  | Ppat_or (a, b) -> pattern_strings a @ pattern_strings b
  | Ppat_alias (a, _) -> pattern_strings a
  | _ -> []

let collect_uses pf u =
  let file = pf.p_path in
  let in_lib_server = under "lib/server" file || is_fixture file in
  let is_client = Filename.basename file = "client.ml" || is_fixture file in
  let is_telemetry_def = file = "lib/obs/telemetry.ml" in
  let add l v line = l := (v, file, line) :: !l in
  let ops = ref u.u_ops
  and codes = ref u.u_codes
  and faults = ref u.u_faults
  and injections = ref u.u_injections
  and counters = ref u.u_counters in
  let json_string_construct (e : expression) =
    match e.pexp_desc with
    | Pexp_construct ({ Asttypes.txt; _ }, Some arg)
      when last_seg (K.flatten_lid txt) = "String" ->
      string_const arg
    | _ -> None
  in
  let expr it e =
    let line = K.line_of e.pexp_loc in
    (match e.pexp_desc with
    (* ("op", Json.String "solve") pairs anywhere on the wire *)
    | Pexp_tuple [ k; v ] when string_const k = Some "op" -> (
      match json_string_construct v with
      | Some op -> add ops op (K.line_of v.pexp_loc)
      | None -> ())
    (* server/client dispatch arms: match op with "solve" -> ... *)
    | Pexp_match
        ({ pexp_desc = Pexp_ident { Asttypes.txt = Longident.Lident "op"; _ }; _ },
         cases) ->
      List.iter
        (fun (c : case) ->
          List.iter
            (fun s -> add ops s (K.line_of c.pc_lhs.ppat_loc))
            (pattern_strings c.pc_lhs))
        cases
    (* Error ("code", msg) replies inside lib/server *)
    | Pexp_construct
        ({ Asttypes.txt = lid; _ },
         Some { pexp_desc = Pexp_tuple [ c; _ ]; _ })
      when in_lib_server && last_seg (K.flatten_lid lid) = "Error" -> (
      match string_const c with
      | Some code -> add codes code (K.line_of c.pexp_loc)
      | None -> ())
    (* optional fault-point parameters: ?(point = "sock.write") *)
    | Pexp_fun (Asttypes.Optional "point", Some d, _, _) -> (
      match string_const d with
      | Some p -> add faults p (K.line_of d.pexp_loc)
      | None -> ())
    | Pexp_apply (f, args) ->
      List.iter
        (fun (lbl, a) ->
          match (lbl, string_const a) with
          | Asttypes.Labelled "code", Some c ->
            add codes c (K.line_of a.pexp_loc)
          | Asttypes.Labelled "point", Some p ->
            add faults p (K.line_of a.pexp_loc)
          | _ -> ())
        args;
      (match ident_path f with
      | Some path ->
        let name = last_seg path in
        if
          List.length path >= 2
          && List.nth path (List.length path - 2) = "Faults"
          && List.mem name fault_fns
        then
          List.iter
            (fun (lbl, a) ->
              match (lbl, string_const a) with
              | Asttypes.Nolabel, Some p -> add faults p (K.line_of a.pexp_loc)
              | _ -> ())
            args;
        if List.mem name counter_fns && not is_telemetry_def then (
          match
            List.find_map
              (fun (lbl, a) ->
                match (lbl, string_const a) with
                | Asttypes.Nolabel, Some s -> Some (s, a)
                | _ -> None)
              args
          with
          | Some (s, a) -> add counters s (K.line_of a.pexp_loc)
          | None -> ())
      | None -> ())
    | Pexp_constant (Pconst_string (s, _, _)) ->
      List.iter (fun p -> add injections p line) (injection_points s)
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.expr it e
  in
  let pat it p =
    (if is_client then
       match p.ppat_desc with
       | Ppat_construct ({ Asttypes.txt; _ }, Some (_, arg))
         when last_seg (K.flatten_lid txt) = "String" ->
         List.iter
           (fun s -> add codes s (K.line_of p.ppat_loc))
           (pattern_strings arg)
       | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.pat it p
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      Ast_iterator.expr = expr;
      Ast_iterator.pat = pat;
    }
  in
  K.iter_ast iter pf.p_ast;
  u.u_ops <- !ops;
  u.u_codes <- !codes;
  u.u_faults <- !faults;
  u.u_injections <- !injections;
  u.u_counters <- !counters

let registry_diagnostics (reg : Registry.t) u =
  let out = ref [] in
  let reg_path = reg.Registry.path in
  let diag file line rule message = out := { K.file; line; rule; message } :: !out in
  let check kind rule what (v, file, line) =
    if not (Registry.mem reg kind v) then
      diag file line rule
        (Printf.sprintf "%s %S is not in the registry (%s)" what v reg_path)
  in
  List.iter (check "op" rule_op "wire op") u.u_ops;
  List.iter (check "code" rule_code "wire error code") u.u_codes;
  List.iter (check "fault" rule_fault "fault point") u.u_faults;
  List.iter (check "counter" rule_counter "telemetry counter") u.u_counters;
  List.iter
    (fun (p, file, line) ->
      let base =
        if Filename.check_suffix p ".fail" then Filename.chop_suffix p ".fail"
        else p
      in
      if not (Registry.mem reg "fault" p || Registry.mem reg "fault" base)
      then
        diag file line rule_fault
          (Printf.sprintf
             "fault injection targets point %S which is not in the registry \
              (%s)"
             p reg_path))
    u.u_injections;
  (* Orphans: a registry entry nothing references any more is drift in
     the other direction (an op nobody serves, a fault point no code
     site passes, a counter never bumped). *)
  let seen kind =
    match kind with
    | "op" -> List.map (fun (v, _, _) -> v) u.u_ops
    | "code" -> List.map (fun (v, _, _) -> v) u.u_codes
    | "fault" -> List.map (fun (v, _, _) -> v) u.u_faults
    | _ -> List.map (fun (v, _, _) -> v) u.u_counters
  in
  let orphan_rule = function
    | "op" -> rule_op
    | "code" -> rule_code
    | "fault" -> rule_fault
    | _ -> rule_counter
  in
  let orphan_what = function
    | "op" -> "no op literal constructs or matches it"
    | "code" -> "no code site constructs or matches it"
    | "fault" -> "no code site passes it to Faults"
    | _ -> "no code site bumps or reads it"
  in
  List.iter
    (fun (e : Registry.entry) ->
      let kind = e.Registry.kind and name = e.Registry.name in
      if not (List.mem name (seen kind)) then
        diag reg_path e.Registry.line (orphan_rule kind)
          (Printf.sprintf "registry %s %S is orphaned: %s" kind name
             (orphan_what kind)))
    reg.Registry.entries;
  !out

(* ------------------------------------------------------------------ *)
(* Unreached exports                                                   *)
(* ------------------------------------------------------------------ *)

(* A file's role comes from its directory segments, so a fixture marks
   its own by a lib/ or bin/ directory inside it: lib/ files export,
   and bin/ and bench/ files are the roots the program runs from. *)
let has_segment segs path =
  List.exists (fun s -> List.mem s segs) (String.split_on_char '/' path)

let lib_file = has_segment [ "lib" ]
let root_file = has_segment [ "bin"; "bench" ]

(* Every value path an expression (or a whole file) names: identifiers
   and binding operators such as [let*]. *)
let referenced_paths ~visit =
  let acc = ref [] in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { Asttypes.txt; _ } -> acc := K.flatten_lid txt :: !acc
    | Pexp_letop { let_; ands; _ } ->
      List.iter (fun op -> acc := [ op.pbop_op.Asttypes.txt ] :: !acc) (let_ :: ands)
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.expr it e
  in
  visit { Ast_iterator.default_iterator with Ast_iterator.expr = expr };
  !acc

(* Modules a file opens, by [open], [let open] or [M.(...)]. *)
let opened_modules ast =
  let acc = ref [] in
  let open_declaration it (od : open_declaration) =
    (match od.popen_expr.pmod_desc with
    | Pmod_ident { Asttypes.txt; _ } -> acc := last_seg (K.flatten_lid txt) :: !acc
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.open_declaration it od
  in
  K.iter_ast
    { Ast_iterator.default_iterator with Ast_iterator.open_declaration }
    ast;
  !acc

(* A reached path, keyed like the call graph: (innermost module, name)
   through the file's aliases.  A bare name may belong to any enclosing
   module or any module the file opens, so it reaches each of them. *)
let path_keys ~amap ~opens ~mods path =
  let resolve m = match Hashtbl.find_opt amap m with Some r -> r | None -> m in
  match List.rev path with
  | [] -> []
  | [ name ] -> List.map (fun m -> (resolve m, name)) (mods @ opens)
  | name :: m :: _ -> [ (resolve m, name) ]

(* Value bindings of a lib structure and its initialisers ([let () =],
   [let _ =], bare expressions), each with its module chain, innermost
   first. *)
let structure_sites modname structure =
  let binds = ref [] and inits = ref [] in
  let rec go mods items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match pat_vars vb.pvb_pat with
              | [] -> inits := (mods, vb.pvb_expr) :: !inits
              | names ->
                List.iter (fun n -> binds := (n, mods, vb.pvb_expr) :: !binds) names)
            vbs
        | Pstr_eval (e, _) -> inits := (mods, e) :: !inits
        | Pstr_module mb -> (
          match (mb.pmb_name.Asttypes.txt, module_items mb.pmb_expr) with
          | Some name, Some sub -> go (name :: mods) sub
          | _ -> ())
        | _ -> ())
      items
  in
  go [ modname ] structure;
  (!binds, !inits)

(* Reachability from the roots: every path named anywhere in a bin/ or
   bench/ file (whole files, so a bench module that shares a lib
   module's name still counts) and in a lib initialiser; a reached lib
   binding reaches every path in its body.  An exported [val] of a lib
   .mli, nested signatures included, that nothing reaches is code only
   tests or examples run. *)
let unreached_export_diagnostics g pfiles =
  let bodies = Hashtbl.create 1024 in
  let reached = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let reach key =
    if not (Hashtbl.mem reached key) then begin
      Hashtbl.replace reached key ();
      Queue.push key queue
    end
  in
  let refer ~amap ~opens ~mods paths =
    List.iter (fun p -> List.iter reach (path_keys ~amap ~opens ~mods p)) paths
  in
  List.iter
    (fun pf ->
      let amap = aliases_of g pf.p_path and opens = opened_modules pf.p_ast in
      match pf.p_ast with
      | K.Impl structure when lib_file pf.p_path ->
        let binds, inits = structure_sites pf.p_mod structure in
        List.iter
          (fun (name, mods, e) ->
            Hashtbl.add bodies (List.hd mods, name) (amap, opens, mods, e))
          binds;
        List.iter
          (fun (mods, e) ->
            refer ~amap ~opens ~mods
              (referenced_paths ~visit:(fun it -> it.Ast_iterator.expr it e)))
          inits
      | ast when root_file pf.p_path ->
        refer ~amap ~opens ~mods:[ pf.p_mod ]
          (referenced_paths ~visit:(fun it -> K.iter_ast it ast))
      | _ -> ())
    pfiles;
  while not (Queue.is_empty queue) do
    List.iter
      (fun (amap, opens, mods, e) ->
        refer ~amap ~opens ~mods
          (referenced_paths ~visit:(fun it -> it.Ast_iterator.expr it e)))
      (Hashtbl.find_all bodies (Queue.pop queue))
  done;
  List.concat_map
    (fun pf ->
      match pf.p_ast with
      | K.Intf signature when lib_file pf.p_path ->
        let rec go mods items =
          List.concat_map
            (fun item ->
              match item.psig_desc with
              | Psig_value vd
                when not (Hashtbl.mem reached (List.hd mods, vd.pval_name.Asttypes.txt)) ->
                [
                  {
                    K.file = pf.p_path;
                    line = K.line_of vd.pval_loc;
                    rule = rule_unreached;
                    message =
                      Printf.sprintf
                        "%s is exported but no bin/ or bench/ code reaches \
                         it: delete it, move it to test/ or examples/, or \
                         stop exporting it"
                        (String.concat "." (List.rev (vd.pval_name.Asttypes.txt :: mods)));
                  };
                ]
              | Psig_module
                  {
                    pmd_name = { Asttypes.txt = Some name; _ };
                    pmd_type = { pmty_desc = Pmty_signature sub; _ };
                    _;
                  } ->
                go (name :: mods) sub
              | _ -> [])
            items
        in
        go [ pf.p_mod ] signature
      | _ -> [])
    pfiles

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let marker = "tdmd-analyze"

let analyze_sources ?registry sources =
  let pfiles, parse_errors =
    List.fold_left
      (fun (pfs, errs) (path, source) ->
        match K.parse_ast ~file:path source with
        | ast ->
          ( {
              p_path = path;
              p_source = source;
              p_ast = ast;
              p_mod = module_of_path path;
            }
            :: pfs,
            errs )
        | exception exn ->
          (pfs, K.parse_error_diagnostic ~file:path exn :: errs))
      ([], []) sources
  in
  let pfiles = List.sort (fun a b -> compare a.p_path b.p_path) pfiles in
  let g = build_genv pfiles in
  let lock_files = List.filter (fun pf -> lock_scope pf.p_path) pfiles in
  let facts = List.map (collect_lock_facts g) lock_files in
  let acqs = List.concat_map fst facts in
  let calls = List.concat_map snd facts in
  let lock_diags = lock_order_diagnostics acqs calls in
  let escape_diags =
    List.concat_map
      (fun pf -> if escape_scope pf.p_path then escape_diagnostics g pf else [])
      pfiles
  in
  let registry_diags =
    match registry with
    | None -> []
    | Some reg ->
      let u =
        {
          u_ops = [];
          u_codes = [];
          u_faults = [];
          u_injections = [];
          u_counters = [];
        }
      in
      List.iter
        (fun pf -> if registry_scope pf.p_path then collect_uses pf u)
        pfiles;
      registry_diagnostics reg u
  in
  let raw =
    lock_diags @ escape_diags @ registry_diags
    @ unreached_export_diagnostics g pfiles
  in
  (* Apply per-file suppression comments (the marker followed by
     ": allow RULE" and a mandatory reason). *)
  let by_file = Hashtbl.create 16 in
  List.iter (fun pf -> Hashtbl.replace by_file pf.p_path pf.p_source) pfiles;
  let sup_errors = ref [] in
  let tables = Hashtbl.create 16 in
  Hashtbl.iter
    (fun path source ->
      let table, errs =
        K.scan_suppressions ~marker ~known_rule ~file:path source
      in
      Hashtbl.replace tables path table;
      sup_errors := errs @ !sup_errors)
    by_file;
  let kept =
    List.filter
      (fun (d : K.diagnostic) ->
        match Hashtbl.find_opt tables d.K.file with
        | Some table -> not (K.suppressed table d.K.rule d.K.line)
        | None -> true)
      raw
  in
  List.sort_uniq K.compare_diagnostic (parse_errors @ !sup_errors @ kept)

let analyze_files ?registry_path files =
  let registry, reg_errors =
    match registry_path with
    | None -> (None, [])
    | Some path ->
      if Sys.file_exists path then
        let reg, errs = Registry.load path in
        (Some reg, errs)
      else
        ( None,
          [
            {
              K.file = path;
              line = 1;
              rule = "registry";
              message = "registry file not found";
            };
          ] )
  in
  let sources = List.map (fun f -> (f, K.read_file f)) files in
  List.sort K.compare_diagnostic
    (reg_errors @ analyze_sources ?registry sources)
