(* tdmd-analyze correctness: the interprocedural lock-order analysis
   reports deliberate cycles with their exact witness chains and stays
   quiet on legal nestings; domain-escape, the registry rules and
   unreached-export fire on their must-flag fixtures at the exact
   file/line and pass their must-pass fixtures; suppression comments
   use the tdmd-analyze marker. *)

module A = Analyze_core
module K = Check_kit

let fixture name = Filename.concat "analyze_fixtures" name

let analyze ?registry files =
  A.analyze_files
    ?registry_path:(Option.map fixture registry)
    (List.map fixture files)

let hits ?registry files =
  List.map (fun d -> (d.K.rule, d.K.file, d.K.line)) (analyze ?registry files)

let check_hits name ?registry files expected =
  Alcotest.(check (list (triple string string int)))
    (name ^ ": exact rule/file/line hits") expected (hits ?registry files)

(* ------------------------------------------------------------------ *)
(* Lock order                                                          *)
(* ------------------------------------------------------------------ *)

(* The two-edge A->B / B->A cycle must come back as one diagnostic
   whose witness names both acquisition sites, the locks held at each,
   and the full cycle path. *)
let test_lock_cycle_witness () =
  match analyze [ "flag_lock_cycle.ml" ] with
  | [ d ] ->
    Alcotest.(check string) "rule" "lock-order" d.K.rule;
    Alcotest.(check string) "file" (fixture "flag_lock_cycle.ml") d.K.file;
    Alcotest.(check int) "line" 7 d.K.line;
    Alcotest.(check string)
      "exact two-edge witness"
      "lock-order cycle: Flag_lock_cycle.la -> Flag_lock_cycle.lb -> \
       Flag_lock_cycle.la; Flag_lock_cycle.f acquires Flag_lock_cycle.lb at \
       analyze_fixtures/flag_lock_cycle.ml:7 while holding \
       Flag_lock_cycle.la; Flag_lock_cycle.g acquires Flag_lock_cycle.la at \
       analyze_fixtures/flag_lock_cycle.ml:11 while holding \
       Flag_lock_cycle.lb"
      d.K.message
  | ds ->
    Alcotest.failf "expected exactly one lock-order diagnostic, got %d"
      (List.length ds)

(* A cycle threaded through a callee gets an interprocedural witness:
   "f calls take_b ... while holding a; take_b acquires b ...". *)
let test_lock_cycle_interprocedural () =
  match analyze [ "flag_lock_cycle_call.ml" ] with
  | [ d ] ->
    Alcotest.(check string) "rule" "lock-order" d.K.rule;
    let contains sub =
      let n = String.length d.K.message and m = String.length sub in
      let rec go i =
        i + m <= n && (String.sub d.K.message i m = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      "witness crosses the call" true
      (contains
         "Flag_lock_cycle_call.f calls Flag_lock_cycle_call.take_b at \
          analyze_fixtures/flag_lock_cycle_call.ml:10 while holding \
          Flag_lock_cycle_call.a");
    Alcotest.(check bool)
      "witness lands on the callee's acquisition" true
      (contains
         "Flag_lock_cycle_call.take_b acquires Flag_lock_cycle_call.b at \
          analyze_fixtures/flag_lock_cycle_call.ml:6")
  | ds ->
    Alcotest.failf "expected exactly one lock-order diagnostic, got %d"
      (List.length ds)

let test_lock_reentry () =
  match analyze [ "flag_lock_reentry.ml" ] with
  | [ d ] ->
    Alcotest.(check string) "rule" "lock-order" d.K.rule;
    Alcotest.(check int) "line" 6 d.K.line;
    Alcotest.(check string)
      "re-entry message"
      "lock Flag_lock_reentry.l is acquired while already held (Mutex is \
       not reentrant): Flag_lock_reentry.f acquires Flag_lock_reentry.l at \
       analyze_fixtures/flag_lock_reentry.ml:6 while holding \
       Flag_lock_reentry.l"
      d.K.message
  | ds ->
    Alcotest.failf "expected exactly one re-entry diagnostic, got %d"
      (List.length ds)

(* Sequential same-lock use, a repeated consistent nesting, and a spawn
   under a held lock must produce no diagnostics at all. *)
let test_lock_nested_same_no_false_positive () =
  check_hits "nested-same-lock" [ "pass_lock_nested_same.ml" ] []

(* ------------------------------------------------------------------ *)
(* Domain escape                                                       *)
(* ------------------------------------------------------------------ *)

let test_domain_escape () =
  let file = fixture "flag_domain_escape.ml" in
  check_hits "domain-escape" [ "flag_domain_escape.ml" ]
    [ ("domain-escape", file, 8); ("domain-escape", file, 9) ];
  check_hits "domain-escape pass" [ "pass_domain_escape.ml" ] []

(* ------------------------------------------------------------------ *)
(* Registry rules                                                      *)
(* ------------------------------------------------------------------ *)

(* Flag fixtures are analyzed together with pass_registry.ml so every
   registry entry keeps a live reference and only the unknown names
   are reported. *)
let with_pass file = [ file; "pass_registry.ml" ]

let test_registry_pass () =
  check_hits "registered names analyze clean" ~registry:"registry.txt"
    [ "pass_registry.ml" ] []

let test_wire_op_drift () =
  let file = fixture "flag_wire_op.ml" in
  check_hits "unknown wire ops" ~registry:"registry.txt"
    (with_pass "flag_wire_op.ml")
    [ ("wire-op", file, 2); ("wire-op", file, 4) ]

let test_wire_code_drift () =
  let file = fixture "flag_wire_code.ml" in
  check_hits "unknown wire codes" ~registry:"registry.txt"
    (with_pass "flag_wire_code.ml")
    [ ("wire-code", file, 3); ("wire-code", file, 5) ]

let test_fault_point_drift () =
  let file = fixture "flag_fault_point.ml" in
  check_hits "unknown fault points" ~registry:"registry.txt"
    (with_pass "flag_fault_point.ml")
    [ ("fault-point", file, 3); ("fault-point", file, 5) ]

let test_counter_drift () =
  let file = fixture "flag_counter.ml" in
  check_hits "unknown counter" ~registry:"registry.txt"
    (with_pass "flag_counter.ml")
    [ ("counter-name", file, 2) ]

(* The drift check runs both ways: an entry nothing references is
   reported at its line in the registry file itself. *)
let test_registry_orphan () =
  match analyze ~registry:"registry_orphan.txt" [ "pass_registry.ml" ] with
  | [ d ] ->
    Alcotest.(check string) "rule" "fault-point" d.K.rule;
    Alcotest.(check string) "file" (fixture "registry_orphan.txt") d.K.file;
    Alcotest.(check int) "line" 5 d.K.line;
    Alcotest.(check string)
      "orphan message"
      "registry fault \"ghost.point\" is orphaned: no code site passes it \
       to Faults"
      d.K.message
  | ds ->
    Alcotest.failf "expected exactly one orphan diagnostic, got %d"
      (List.length ds)

(* ------------------------------------------------------------------ *)
(* Unreached exports                                                   *)
(* ------------------------------------------------------------------ *)

(* Each fixture directory is a small program: its lib/ files export,
   its bin/ and bench/ files are the roots. *)
let analyze_dir dir =
  A.analyze_files
    (K.walk_files ~suffixes:[ ".ml"; ".mli" ] ~excludes:[] [ fixture dir ])

let test_unreached_flag () =
  match analyze_dir "unreached_flag" with
  | [ d ] ->
    Alcotest.(check string) "rule" "unreached-export" d.K.rule;
    Alcotest.(check string) "file"
      (fixture "unreached_flag/lib/ledger.mli") d.K.file;
    Alcotest.(check int) "line" 2 d.K.line;
    Alcotest.(check string) "message"
      "Ledger.audit is exported but no bin/ or bench/ code reaches it: \
       delete it, move it to test/ or examples/, or stop exporting it"
      d.K.message
  | ds ->
    Alcotest.failf "expected exactly one unreached-export diagnostic, got %d"
      (List.length ds)

(* Reached only through a module alias (top-level and [let module]), a
   nested module, a closure in a (name, function) table, a lib
   initialiser, and a bench file named like a lib module. *)
let test_unreached_pass () =
  List.iter
    (fun case ->
      Alcotest.(check (list (triple string string int)))
        (case ^ ": no hits") []
        (List.map
           (fun d -> (d.K.rule, d.K.file, d.K.line))
           (analyze_dir ("unreached_pass/" ^ case))))
    [ "alias"; "nested"; "table"; "init"; "collision" ]

(* ------------------------------------------------------------------ *)
(* Suppressions use the tdmd-analyze marker                            *)
(* ------------------------------------------------------------------ *)

let analyze_src src =
  List.map
    (fun d -> (d.K.rule, d.K.line))
    (A.analyze_sources [ ("analyze_fixtures/inline.ml", src) ])

let test_suppression_marker () =
  Alcotest.(check (list (pair string int)))
    "a reasoned tdmd-analyze comment suppresses the next line" []
    (analyze_src
       "let l = Mutex.create ()\n\
        (* tdmd-analyze: allow lock-order \xe2\x80\x94 fixture *)\n\
        let f () = Locked.with_lock l (fun () -> Locked.with_lock l (fun () \
        -> ()))\n");
  Alcotest.(check (list (pair string int)))
    "the lint marker does not suppress analyzer rules"
    [ ("lock-order", 3) ]
    (analyze_src
       "let l = Mutex.create ()\n\
        (* tdmd-lint: allow lock-order \xe2\x80\x94 wrong tool *)\n\
        let f () = Locked.with_lock l (fun () -> Locked.with_lock l (fun () \
        -> ()))\n")

let suite =
  [
    Alcotest.test_case "lock cycle: exact witness" `Quick
      test_lock_cycle_witness;
    Alcotest.test_case "lock cycle: interprocedural" `Quick
      test_lock_cycle_interprocedural;
    Alcotest.test_case "lock re-entry" `Quick test_lock_reentry;
    Alcotest.test_case "nested same lock: no false positive" `Quick
      test_lock_nested_same_no_false_positive;
    Alcotest.test_case "domain escape fixtures" `Quick test_domain_escape;
    Alcotest.test_case "registry: pass" `Quick test_registry_pass;
    Alcotest.test_case "registry: wire-op drift" `Quick test_wire_op_drift;
    Alcotest.test_case "registry: wire-code drift" `Quick
      test_wire_code_drift;
    Alcotest.test_case "registry: fault-point drift" `Quick
      test_fault_point_drift;
    Alcotest.test_case "registry: counter drift" `Quick test_counter_drift;
    Alcotest.test_case "registry: orphan entry" `Quick test_registry_orphan;
    Alcotest.test_case "unreached export: test-only value" `Quick
      test_unreached_flag;
    Alcotest.test_case "unreached export: reached through the call graph"
      `Quick test_unreached_pass;
    Alcotest.test_case "suppression marker" `Quick test_suppression_marker;
  ]
