(* tdmd-lint correctness: every rule fires on its must-flag fixture at
   the exact file/line and stays silent on its must-pass fixture; the
   suppression mechanism behaves as documented. *)

module L = Lint_core

let fixture name = Filename.concat "lint_fixtures" name

let hits file =
  List.map (fun d -> (d.L.rule, d.L.line)) (L.lint_file (fixture file))

let check_hits name file expected =
  Alcotest.(check (list (pair string int)))
    (name ^ ": exact rule/line hits") expected (hits file)

(* ------------------------------------------------------------------ *)
(* One must-flag and one must-pass fixture per rule                     *)
(* ------------------------------------------------------------------ *)

let test_obj_magic () =
  check_hits "obj-magic" "flag_obj_magic.ml" [ ("obj-magic", 3) ];
  check_hits "obj-magic pass" "pass_obj_magic.ml" []

let test_bare_unix_io () =
  check_hits "bare-unix-io" "flag_bare_unix_io.ml"
    [ ("bare-unix-io", 3); ("bare-unix-io", 4); ("bare-unix-io", 5) ];
  check_hits "bare-unix-io pass" "pass_bare_unix_io.ml" []

let test_naked_mutex_lock () =
  check_hits "naked-mutex-lock" "flag_naked_mutex_lock.ml"
    [ ("naked-mutex-lock", 4) ];
  check_hits "naked-mutex-lock pass" "pass_naked_mutex_lock.ml" []

let test_catch_all () =
  check_hits "catch-all" "flag_catch_all.ml"
    [ ("catch-all", 3); ("catch-all", 7) ];
  check_hits "catch-all pass" "pass_catch_all.ml" []

(* The supervisor hosts the project's single sanctioned catch-and-restart
   site: the aliased wildcard [_ as e] is still a catch-all to the rule,
   and the real site passes only because it carries a reasoned
   suppression (Supervisor.protect re-raises Faults.Crash first). *)
let test_catch_all_supervisor () =
  check_hits "catch-all supervisor" "flag_catch_all_supervisor.ml"
    [ ("catch-all", 6) ];
  check_hits "catch-all supervisor pass" "pass_catch_all_supervisor.ml" []

let test_no_direct_io () =
  check_hits "no-direct-io" "flag_no_direct_io.ml"
    [ ("no-direct-io", 3); ("no-direct-io", 6) ];
  check_hits "no-direct-io pass" "pass_no_direct_io.ml" []

let test_poly_compare_record () =
  check_hits "poly-compare-record" "flag_poly_compare_record.ml"
    [
      ("poly-compare-record", 3);
      ("poly-compare-record", 6);
      ("poly-compare-record", 9);
    ];
  check_hits "poly-compare-record pass" "pass_poly_compare_record.ml" []

let test_float_equal () =
  check_hits "float-equal" "flag_float_equal.ml"
    [ ("float-equal", 3); ("float-equal", 6) ];
  check_hits "float-equal pass" "pass_float_equal.ml" []

(* Bare and [Stdlib.]-qualified min/max/compare, and only those: [Int]'s
   orders, [max_int], [Float.min] and record fields named min/max go
   through.  (The poly-compare-record fixtures allow this rule on their
   one bare [compare], so they pin their own rule alone.)  Watched in
   lib/core only. *)
let test_poly_order () =
  check_hits "poly-order" "flag_poly_order.ml"
    [ ("poly-order", 3); ("poly-order", 6); ("poly-order", 9); ("poly-order", 12) ];
  check_hits "poly-order pass" "pass_poly_order.ml" [];
  Alcotest.(check bool) "watched in lib/core" true
    (List.mem L.Poly_order (L.rules_for_path "lib/core/inc_oracle.ml"));
  Alcotest.(check bool) "not elsewhere" false
    (List.mem L.Poly_order (L.rules_for_path "lib/server/session.ml"))

(* A lazy bound once per module, behind a type constraint, a let or a
   local open, in a submodule too, and only there: a lazy made per
   call, a [let module] inside a function and [Lazy.from_val] go
   through.  Watched in lib/ only. *)
let test_toplevel_lazy () =
  check_hits "toplevel-lazy" "flag_toplevel_lazy.ml"
    (List.map (fun line -> ("toplevel-lazy", line)) [ 2; 4; 6; 8; 12; 15; 19 ]);
  check_hits "toplevel-lazy pass" "pass_toplevel_lazy.ml" [];
  Alcotest.(check bool) "watched in lib/" true
    (List.mem L.Toplevel_lazy (L.rules_for_path "lib/prelude/crc32.ml"));
  Alcotest.(check bool) "not elsewhere" false
    (List.mem L.Toplevel_lazy (L.rules_for_path "test/test_engine.ml"))

(* Interfaces are parsed too: expressions only occur inside attribute
   payloads there, but a float comparison is wrong wherever it hides. *)
let test_mli_fixtures () =
  check_hits "float-equal in mli payload" "flag_mli_float_equal.mli"
    [ ("float-equal", 4) ];
  check_hits "clean mli" "pass_mli.mli" []

(* ------------------------------------------------------------------ *)
(* Suppression comments                                                 *)
(* ------------------------------------------------------------------ *)

let lint_src src =
  List.map (fun d -> (d.L.rule, d.L.line)) (L.lint_source ~file:"inline.ml" src)

let test_suppression_same_line () =
  Alcotest.(check (list (pair string int)))
    "trailing comment suppresses its own line" []
    (lint_src
       "let f x = x = 0.0 (* tdmd-lint: allow float-equal \xe2\x80\x94 exact \
        sentinel *)\n")

let test_suppression_previous_line () =
  Alcotest.(check (list (pair string int)))
    "comment-only line suppresses the next line" []
    (lint_src
       "(* tdmd-lint: allow float-equal \xe2\x80\x94 exact sentinel *)\n\
        let f x = x = 0.0\n")

let test_suppression_does_not_leak () =
  Alcotest.(check (list (pair string int)))
    "suppression covers at most the next line"
    [ ("float-equal", 3) ]
    (lint_src
       "(* tdmd-lint: allow float-equal \xe2\x80\x94 exact sentinel *)\n\
        let f x = x\n\
        let g x = x = 0.0\n")

let test_suppression_wrong_rule () =
  Alcotest.(check (list (pair string int)))
    "suppressing a different rule does not help"
    [ ("float-equal", 1) ]
    (lint_src
       "let f x = x = 0.0 (* tdmd-lint: allow obj-magic \xe2\x80\x94 wrong \
        rule *)\n")

let test_suppression_needs_reason () =
  Alcotest.(check (list (pair string int)))
    "a reason is mandatory"
    [ ("float-equal", 1); ("suppression", 1) ]
    (lint_src "let f x = x = 0.0 (* tdmd-lint: allow float-equal *)\n")

let test_suppression_unknown_rule () =
  Alcotest.(check (list (pair string int)))
    "unknown rule names are reported"
    [ ("suppression", 1) ]
    (lint_src
       "let f x = x (* tdmd-lint: allow no-such-rule \xe2\x80\x94 whatever *)\n")

let test_suppression_multi_rule () =
  Alcotest.(check (list (pair string int)))
    "one comment may allow several rules" []
    (lint_src
       "(* tdmd-lint: allow float-equal, obj-magic \xe2\x80\x94 fixture *)\n\
        let f (x : float) : int = if x = 0.0 then Obj.magic x else 0\n")

(* ------------------------------------------------------------------ *)
(* Path policy and parse errors                                        *)
(* ------------------------------------------------------------------ *)

let has_rule r rules = List.mem r rules

let test_rules_for_path () =
  let check name path rule expected =
    Alcotest.(check bool) name expected (has_rule rule (L.rules_for_path path))
  in
  check "protocol.ml may use bare Unix I/O" "lib/server/protocol.ml"
    L.Bare_unix_io false;
  check "everyone else may not" "lib/server/journal.ml" L.Bare_unix_io true;
  check "locked.ml may lock" "lib/prelude/locked.ml" L.Naked_mutex_lock false;
  check "everyone else must use with_lock" "lib/server/server.ml"
    L.Naked_mutex_lock true;
  check "no direct I/O inside lib/" "lib/sim/report.ml" L.Direct_io true;
  check "bin/ owns its stdout" "bin/tdmd_cli.ml" L.Direct_io false;
  check "catch-all enforced in bench/" "bench/main.ml" L.Catch_all true;
  check "tests may catch broadly" "test/test_server.ml" L.Catch_all false;
  check "poly compare watched in lib/core" "lib/core/gtp.ml"
    L.Poly_compare_record true;
  check "but not elsewhere" "lib/server/session.ml" L.Poly_compare_record
    false;
  check "obj-magic is global" "test/test_heap.ml" L.Obj_magic true;
  check "an mli inherits its implementation's policy"
    "lib/server/protocol.mli" L.Bare_unix_io false;
  check "other interfaces get the default policy" "lib/server/journal.mli"
    L.Bare_unix_io true

let test_parse_error () =
  match L.lint_source ~file:"broken.ml" "let let let = = =\n" with
  | [ { L.rule = "parse-error"; _ } ] -> ()
  | other ->
    Alcotest.failf "expected one parse-error, got %d diagnostics"
      (List.length other)

let suite =
  [
    Alcotest.test_case "obj-magic fixtures" `Quick test_obj_magic;
    Alcotest.test_case "bare-unix-io fixtures" `Quick test_bare_unix_io;
    Alcotest.test_case "naked-mutex-lock fixtures" `Quick
      test_naked_mutex_lock;
    Alcotest.test_case "catch-all fixtures" `Quick test_catch_all;
    Alcotest.test_case "catch-all supervisor fixtures" `Quick
      test_catch_all_supervisor;
    Alcotest.test_case "no-direct-io fixtures" `Quick test_no_direct_io;
    Alcotest.test_case "poly-compare-record fixtures" `Quick
      test_poly_compare_record;
    Alcotest.test_case "float-equal fixtures" `Quick test_float_equal;
    Alcotest.test_case "poly-order fixtures" `Quick test_poly_order;
    Alcotest.test_case "toplevel-lazy fixtures" `Quick test_toplevel_lazy;
    Alcotest.test_case "mli fixtures" `Quick test_mli_fixtures;
    Alcotest.test_case "suppression: same line" `Quick
      test_suppression_same_line;
    Alcotest.test_case "suppression: previous line" `Quick
      test_suppression_previous_line;
    Alcotest.test_case "suppression: no leak" `Quick
      test_suppression_does_not_leak;
    Alcotest.test_case "suppression: wrong rule" `Quick
      test_suppression_wrong_rule;
    Alcotest.test_case "suppression: needs reason" `Quick
      test_suppression_needs_reason;
    Alcotest.test_case "suppression: unknown rule" `Quick
      test_suppression_unknown_rule;
    Alcotest.test_case "suppression: multi rule" `Quick
      test_suppression_multi_rule;
    Alcotest.test_case "path policy" `Quick test_rules_for_path;
    Alcotest.test_case "parse error" `Quick test_parse_error;
  ]
