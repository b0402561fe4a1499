(* Smoke tests for the experiment harness itself: every figure driver
   runs end-to-end at reps = 1 and produces well-formed series with the
   expected sweep points and algorithm sets, and the renderers accept
   the results.  (The full-scale numbers live in bench/ and
   EXPERIMENTS.md; these tests protect the wiring.) *)

module E = Tdmd_sim.Experiments
module Report = Tdmd_sim.Report

let check_result ~algos ~points (r : E.result) =
  Alcotest.(check (list string))
    (r.E.fig_id ^ " algorithms")
    algos
    (List.map (fun s -> s.E.algorithm) r.E.series);
  List.iter
    (fun s ->
      Alcotest.(check int) (r.E.fig_id ^ " points") points (List.length s.E.points);
      List.iter
        (fun (p : Tdmd_sim.Runner.point) ->
          Alcotest.(check bool) "bandwidth positive" true
            (p.Tdmd_sim.Runner.bandwidth.Tdmd_prelude.Stats.mean > 0.0);
          Alcotest.(check bool) "time non-negative" true
            (p.Tdmd_sim.Runner.seconds.Tdmd_prelude.Stats.mean >= 0.0))
        s.E.points)
    r.E.series;
  (* Renderers accept it. *)
  Alcotest.(check bool) "renders" true (String.length (Report.render_result r) > 0);
  Alcotest.(check bool) "csv renders" true (String.length (Report.result_csv r) > 0)

let tree_algos = [ "Random"; "Best-effort"; "GTP"; "HAT"; "DP" ]
let general_algos = [ "Random"; "Best-effort"; "GTP" ]

let test_fig9 () = check_result ~algos:tree_algos ~points:6 (E.fig9 ~reps:1 ())
let test_fig10 () = check_result ~algos:tree_algos ~points:10 (E.fig10 ~reps:1 ())
let test_fig11 () = check_result ~algos:tree_algos ~points:6 (E.fig11 ~reps:1 ())
let test_fig12 () = check_result ~algos:tree_algos ~points:6 (E.fig12 ~reps:1 ())
let test_fig13 () = check_result ~algos:general_algos ~points:6 (E.fig13 ~reps:1 ())
let test_fig14 () = check_result ~algos:general_algos ~points:10 (E.fig14 ~reps:1 ())
let test_fig15 () = check_result ~algos:general_algos ~points:6 (E.fig15 ~reps:1 ())
let test_fig16 () = check_result ~algos:general_algos ~points:6 (E.fig16 ~reps:1 ())

let test_fig17 () =
  let g = E.fig17_tree ~reps:1 () in
  Alcotest.(check int) "grid cells" 9 (List.length g.E.cells);
  List.iter
    (fun (_, _, bw) -> Alcotest.(check bool) "cell >= 0" true (bw >= 0.0))
    g.E.cells;
  (* Spam filters: more budget cannot hurt at fixed density (same seeded
     instances per k in this harness, so compare means loosely). *)
  Alcotest.(check bool) "renders" true (String.length (Report.render_grid g) > 0)

let test_ablation () =
  let rows = E.ablation ~reps:1 () in
  Alcotest.(check bool) "has rows" true (List.length rows >= 10);
  let labels = List.map (fun r -> r.E.label) rows in
  List.iter
    (fun needed ->
      Alcotest.(check bool) (needed ^ " present") true (List.mem needed labels))
    [ "GTP plain"; "GTP CELF"; "Scaled DP (theta=4)"; "HAT"; "Local search on GTP";
      "Incremental vs scratch GTP" ];
  (* CELF parity must hold in the harness too. *)
  let gap =
    List.find (fun r -> r.E.metric = "bandwidth gap vs plain") rows
  in
  Alcotest.(check (float 1e-9)) "celf gap zero" 0.0 gap.E.value;
  Alcotest.(check bool) "renders" true
    (String.length (Report.render_ablation rows) > 0);
  (* No row reads the clock: a second run returns every row again, to
     the bit. *)
  let bits rows =
    List.map (fun r -> (r.E.label, r.E.metric, Int64.bits_of_float r.E.value)) rows
  in
  Alcotest.(check (list (triple string string int64)))
    "two runs, identical rows" (bits rows)
    (bits (E.ablation ~reps:1 ()))

(* Each block draws from its own generator: run alone, or after every
   other block in reverse order, it returns the rows it returns inside
   the full ablation, to the bit. *)
let test_ablation_blocks_independent () =
  let bits rows =
    List.map (fun r -> (r.E.label, r.E.metric, Int64.bits_of_float r.E.value)) rows
  in
  let full = E.ablation ~reps:1 () in
  let reversed =
    List.rev_map (fun b -> (b, E.ablation_block ~reps:1 b)) (List.rev E.ablation_blocks)
  in
  List.iter
    (fun block ->
      let alone = E.ablation_block ~reps:1 block in
      let labels = List.map (fun r -> r.E.label) alone in
      Alcotest.(check bool) "block has rows" true (alone <> []);
      Alcotest.(check (list (triple string string int64)))
        "alone = inside the full ablation" (bits alone)
        (bits (List.filter (fun r -> List.mem r.E.label labels) full));
      Alcotest.(check (list (triple string string int64)))
        "alone = after the other blocks" (bits alone)
        (bits (List.assq block reversed)))
    E.ablation_blocks

(* Expected orderings at modest reps: the headline claims of Sec. 6.3. *)
let test_fig9_ordering () =
  let r = E.fig9 ~reps:3 () in
  let series name = List.find (fun s -> s.E.algorithm = name) r.E.series in
  List.iteri
    (fun i (dp_p : Tdmd_sim.Runner.point) ->
      let value (s : E.series) =
        (List.nth s.E.points i).Tdmd_sim.Runner.bandwidth.Tdmd_prelude.Stats.mean
      in
      let dp = dp_p.Tdmd_sim.Runner.bandwidth.Tdmd_prelude.Stats.mean in
      (* DP is optimal per instance, so its mean over the shared draws is
         a hard floor; the heuristics' relative order is a statistical
         claim, so allow a small tolerance at these low rep counts. *)
      Alcotest.(check bool) "DP <= HAT" true (dp <= value (series "HAT") +. 1e-6);
      Alcotest.(check bool) "DP <= GTP" true (dp <= value (series "GTP") +. 1e-6);
      Alcotest.(check bool) "DP <= Random" true (dp <= value (series "Random") +. 1e-6);
      Alcotest.(check bool) "HAT <~ GTP" true
        (value (series "HAT") <= (1.05 *. value (series "GTP")) +. 1e-6);
      Alcotest.(check bool) "GTP <~ Random" true
        (value (series "GTP") <= (1.05 *. value (series "Random")) +. 1e-6))
    (series "DP").E.points

let suite =
  [
    Alcotest.test_case "fig9 wiring" `Quick test_fig9;
    Alcotest.test_case "fig10 wiring" `Quick test_fig10;
    Alcotest.test_case "fig11 wiring" `Quick test_fig11;
    Alcotest.test_case "fig12 wiring" `Quick test_fig12;
    Alcotest.test_case "fig13 wiring" `Quick test_fig13;
    Alcotest.test_case "fig14 wiring" `Quick test_fig14;
    Alcotest.test_case "fig15 wiring" `Quick test_fig15;
    Alcotest.test_case "fig16 wiring" `Quick test_fig16;
    Alcotest.test_case "fig17 wiring" `Quick test_fig17;
    Alcotest.test_case "ablation wiring" `Quick test_ablation;
    Alcotest.test_case "ablation blocks independent" `Quick
      test_ablation_blocks_independent;
    Alcotest.test_case "fig9: paper ordering holds" `Slow test_fig9_ordering;
  ]
