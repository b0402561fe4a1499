(* solvers: every registered solver at its default scenario.  One
   "bench" record per solver in BENCH_solvers.json: a wall-clock summary
   over [reps] runs plus the last run's telemetry.  A solver that cannot
   handle the default scenario (e.g. brute's subset cap) yields a
   "bench-error" record instead of aborting the sweep. *)

open Tdmd_prelude
open Tdmd_sim
module Json = Tdmd_obs.Json

let reps = 5

let summary_json (s : Stats.summary) =
  Json.Obj
    [
      ("mean", Json.Float s.Stats.mean);
      ("stddev", Json.Float s.Stats.stddev);
      ("min", Json.Float s.Stats.min);
      ("max", Json.Float s.Stats.max);
    ]

let record ~input ~name ~k run =
  match
    List.init reps (fun i ->
        let rng = Rng.create (1000 + i) in
        Tdmd_obs.Clock.time (fun () -> run ~rng ~k))
  with
  | runs ->
    let seconds = Stats.summarize (List.map snd runs) in
    let outcome = fst (List.hd (List.rev runs)) in
    Tdmd_obs.Sink.record ~event:"bench"
      ~extra:
        [
          ("solver", Json.String name);
          ("input", Json.String input);
          ("k", Json.Int k);
          ("reps", Json.Int reps);
          ("seconds", summary_json seconds);
          ("bandwidth", Json.Float outcome.Tdmd.Solver_intf.bandwidth);
          ("feasible", Json.Bool outcome.Tdmd.Solver_intf.feasible);
        ]
      outcome.Tdmd.Solver_intf.telemetry
  | exception exn ->
    Json.Obj
      [
        ("event", Json.String "bench-error");
        ("solver", Json.String name);
        ("input", Json.String input);
        ("error", Json.String (Printexc.to_string exn));
      ]

let run () =
  let rng = Rng.create 4242 in
  let tree_inst = Scenario.build_tree rng Scenario.default_tree in
  let general_inst = Scenario.build_general rng Scenario.default_general in
  let kt = Scenario.default_tree.Scenario.k in
  let kg = Scenario.default_general.Scenario.k in
  let path, () =
    Harness.with_records "solvers" (fun emit ->
        List.iter
          (fun (name, f) ->
            emit
              (record ~input:"general" ~name ~k:kg (fun ~rng ~k ->
                   f ~rng ~k general_inst)))
          (Tdmd.Solvers.general ());
        List.iter
          (fun (name, f) ->
            emit
              (record ~input:"tree" ~name ~k:kt (fun ~rng ~k ->
                   f ~rng ~k tree_inst)))
          (Tdmd.Solvers.tree ()))
  in
  Printf.printf "== solver registry sweep ==\n\nwrote %s (%d solvers)\n" path
    (List.length (Tdmd.Solvers.names ()))
