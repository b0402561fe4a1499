(* Solver registry: every registered solver must produce a feasible,
   correctly-priced outcome on the paper's worked examples, a registry
   row must report the same work counters as a direct call, and every
   name must reproduce its golden outcomes. *)

open Tdmd_prelude
module Solvers = Tdmd.Solvers
module Tel = Tdmd_obs.Telemetry
module Scenario = Tdmd_sim.Scenario

let check_priced name inst (o : Tdmd.Solver_intf.outcome) =
  Alcotest.(check bool) (name ^ " feasible") true o.Tdmd.Solver_intf.feasible;
  Alcotest.(check (float 1e-9)) (name ^ " bandwidth matches its placement")
    (Tdmd.Bandwidth.total inst o.Tdmd.Solver_intf.placement)
    o.Tdmd.Solver_intf.bandwidth

let test_general_solvers () =
  let inst = Fixtures.fig1_instance () in
  List.iter
    (fun (name, solve) ->
      let o = solve ~rng:(Rng.create 7) ~k:3 inst in
      check_priced name inst o)
    (Solvers.general ());
  (* Fig. 1 worked optimum at k = 3 is 8: brute must hit it and the
     greedy must match on this instance (Tab. 2's trace). *)
  let bw name =
    let solve = Option.get (Solvers.find_general name) in
    (solve ~rng:(Rng.create 7) ~k:3 inst).Tdmd.Solver_intf.bandwidth
  in
  Alcotest.(check (float 1e-9)) "brute optimum" 8.0 (bw "brute");
  Alcotest.(check (float 1e-9)) "gtp matches the worked example" 8.0 (bw "gtp");
  Alcotest.(check (float 1e-9)) "celf = gtp" (bw "gtp") (bw "celf")

let test_tree_solvers () =
  (* Fig. 5 is binary, so even dp-binary runs on it. *)
  let inst = Fixtures.fig5_instance () in
  let general = Tdmd.Instance.Tree.to_general inst in
  List.iter
    (fun (name, solve) ->
      let o = solve ~rng:(Rng.create 7) ~k:2 inst in
      check_priced name general o)
    (Solvers.tree ());
  let bw name =
    let solve = Option.get (Solvers.find_tree name) in
    (solve ~rng:(Rng.create 7) ~k:2 inst).Tdmd.Solver_intf.bandwidth
  in
  Alcotest.(check (float 1e-9)) "dp-binary = dp" (bw "dp") (bw "dp-binary");
  Alcotest.(check bool) "dp optimal vs hat" true (bw "dp" <= bw "hat" +. 1e-9)

let test_on_tree_lifts_general () =
  let inst = Fixtures.fig5_instance () in
  let lifted = Option.get (Solvers.on_tree "gtp") in
  let o = lifted ~rng:(Rng.create 7) ~k:2 inst in
  let direct = Tdmd.Gtp.run ~budget:2 (Tdmd.Instance.Tree.to_general inst) in
  Alcotest.(check (float 1e-9)) "lifted gtp = direct gtp"
    direct.Tdmd.Solver_intf.bandwidth o.Tdmd.Solver_intf.bandwidth;
  Alcotest.(check bool) "tree-only name not in general table" true
    (Solvers.find_general "dp" = None);
  Alcotest.(check bool) "unknown name rejected" true (Solvers.on_tree "nope" = None)

let test_telemetry_matches_reports () =
  let inst = Fixtures.fig1_instance () in
  let run name =
    let solve = Option.get (Solvers.find_general name) in
    solve ~rng:(Rng.create 7) ~k:3 inst
  in
  let calls o = Fixtures.count o "oracle_calls" in
  let gtp = calls (Tdmd.Gtp.run ~budget:3 inst) in
  Alcotest.(check int) "gtp oracle_calls: registry = direct call" gtp
    (calls (run "gtp"));
  let celf = calls (Tdmd.Gtp.run_celf ~budget:3 inst) in
  Alcotest.(check int) "celf oracle_calls: registry = direct call" celf
    (calls (run "celf"));
  Alcotest.(check bool) "celf lazily skips oracle calls" true (celf <= gtp);
  (* Every solver run leaves at least one closed span behind. *)
  List.iter
    (fun (name, solve) ->
      let o = solve ~rng:(Rng.create 7) ~k:3 inst in
      Alcotest.(check bool) (name ^ " recorded a span") true
        (Tel.spans o.Tdmd.Solver_intf.telemetry <> []))
    (Solvers.general ())

let test_names_unique () =
  let names = Solvers.names () in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length sorted);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " resolves on trees") true
        (Solvers.on_tree name <> None))
    names

(* Golden outcomes: every registry name, run on fixed seeded instances,
   must reproduce test/registry_golden.txt line for line.  A line pins
   the placement, the bandwidth's bits, feasibility, every metric in
   first-write order (the order a solve reply puts them on the wire)
   and the span-label tree.  Two metrics are left out: "oracle_ns" is a
   wall-clock timing, and the portfolio's "improvements" counts how
   often its members' domains happened to beat each other's incumbent,
   which depends on scheduling.  A name that raises (dp-binary on a
   non-binary tree) records the exception instead. *)
let golden_file = "registry_golden.txt"

let golden_value = function
  | Tel.Int n -> string_of_int n
  | Tel.Float f -> Printf.sprintf "%Lx" (Int64.bits_of_float f)
  | Tel.Bool b -> string_of_bool b
  | Tel.String s -> Printf.sprintf "%S" s

let rec golden_span (s : Tel.span) =
  match s.Tel.children with
  | [] -> s.Tel.label
  | cs ->
    Printf.sprintf "%s(%s)" s.Tel.label (String.concat "," (List.map golden_span cs))

let golden_line ~tag ~k name run =
  match run (Rng.create 42) with
  | exception Invalid_argument msg ->
    Printf.sprintf "%s k=%d %s raises Invalid_argument %S" tag k name msg
  | (o : Tdmd.Solver_intf.outcome) ->
    let tel = o.Tdmd.Solver_intf.telemetry in
    let kept (key, _) =
      key <> "oracle_ns" && not (name = "portfolio" && key = "improvements")
    in
    Printf.sprintf "%s k=%d %s placement=[%s] bw=%Lx feasible=%b metrics=[%s] spans=[%s]"
      tag k name
      (String.concat ","
         (List.map string_of_int (Tdmd.Placement.to_list o.Tdmd.Solver_intf.placement)))
      (Int64.bits_of_float o.Tdmd.Solver_intf.bandwidth)
      o.Tdmd.Solver_intf.feasible
      (String.concat ","
         (List.filter_map
            (fun ((key, v) as m) ->
              if kept m then Some (key ^ "=" ^ golden_value v) else None)
            (Tel.metrics tel)))
      (String.concat "," (List.map golden_span (Tel.spans tel)))

let golden_lines () =
  Tdmd_portfolio.Register.install ();
  (* Every (λ, seed, k) cell of one topology family, each solver in
     registry order. *)
  let grid family build solvers =
    List.concat_map
      (fun lambda ->
        List.concat_map
          (fun seed ->
            let inst = build seed lambda in
            let tag = Printf.sprintf "%s lambda=%g seed=%d" family lambda seed in
            List.concat_map
              (fun k ->
                List.map
                  (fun (name, solve) ->
                    golden_line ~tag ~k name (fun rng -> solve ~rng ~k inst))
                  solvers)
              [ 1; 3; 4 ])
          [ 1; 2 ])
      [ 0.0; 0.5; 1.0 ]
  in
  let general =
    grid "general"
      (fun seed lambda ->
        Scenario.build_general (Rng.create (500 + seed))
          { Scenario.default_general with Scenario.size = 20; lambda })
      (Solvers.general ())
  in
  let tree =
    grid "tree"
      (fun seed lambda ->
        Scenario.build_tree (Rng.create (600 + seed))
          { Scenario.default_tree with Scenario.size = 22; lambda })
      (List.map
         (fun name -> (name, Option.get (Solvers.on_tree name)))
         (Solvers.names ()))
  in
  general @ tree

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_golden_outcomes () =
  let expected = read_lines golden_file and actual = golden_lines () in
  Alcotest.(check int) "golden line count" (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      Alcotest.(check string) (Printf.sprintf "golden line %d" (i + 1)) e a)
    (List.combine expected actual)

let suite =
  [
    Alcotest.test_case "registry: general solvers on fig1" `Quick
      test_general_solvers;
    Alcotest.test_case "registry: tree solvers on fig5" `Quick test_tree_solvers;
    Alcotest.test_case "registry: on_tree lifts general solvers" `Quick
      test_on_tree_lifts_general;
    Alcotest.test_case "registry: telemetry matches report fields" `Quick
      test_telemetry_matches_reports;
    Alcotest.test_case "registry: names unique and tree-resolvable" `Quick
      test_names_unique;
    Alcotest.test_case "registry: golden outcomes" `Quick test_golden_outcomes;
  ]
