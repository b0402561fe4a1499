(* portfolio: solution quality vs step budget.

   Races the anytime portfolio at a family of step budgets on one
   40-vertex general instance and sweeps the rest of the registry as
   the reference, comparing on the exact-integer diminished volume.
   The anneal schedule is budget-independent (fixed half-life), so a
   larger budget replays a smaller one's prefix and the curve must be
   monotone; the run fails if it is not, or if the full-budget portfolio
   answers worse than the best reference solver.  "bench-portfolio" and
   "bench-portfolio-reference" records go to BENCH_portfolio.json. *)

open Tdmd_prelude
open Tdmd_sim
module Json = Tdmd_obs.Json
module Pf = Tdmd_portfolio.Portfolio

let budgets = [ 50; 200; 800; 3200; 12800 ]

(* Every registered general solver except the portfolio's own members,
   and brute force, which cannot enumerate at this size. *)
let excluded = [ "portfolio"; "anneal"; "genetic"; "brute" ]

let run () =
  print_endline "== portfolio bench: quality vs step budget ==\n";
  let scenario = { Scenario.default_general with Scenario.size = 40 } in
  let k = scenario.Scenario.k in
  let inst = Scenario.build_general (Rng.create 4242) scenario in
  let base_fields =
    [
      ("vertices", Json.Int scenario.Scenario.size);
      ("k", Json.Int k);
      ("lambda", Json.Float scenario.Scenario.lambda);
    ]
  in
  let table =
    Table.create
      [ "budget"; "volume"; "bandwidth"; "member"; "improvements"; "seconds" ]
  in
  let path, (reference, points) =
    Harness.with_records "portfolio" (fun emit ->
        let reference =
          List.filter_map
            (fun (name, solve) ->
              if List.mem name excluded then None
              else begin
                let o, seconds =
                  Tdmd_obs.Clock.time (fun () -> solve ~rng:(Rng.create 1000) ~k inst)
                in
                let volume = o.Tdmd.Solver_intf.volume in
                emit
                  (Json.Obj
                     (("event", Json.String "bench-portfolio-reference")
                     :: ("solver", Json.String name)
                     :: ("volume", Json.Int volume)
                     :: ("bandwidth", Json.Float o.Tdmd.Solver_intf.bandwidth)
                     :: ("feasible", Json.Bool o.Tdmd.Solver_intf.feasible)
                     :: ("seconds", Json.Float seconds)
                     :: base_fields));
                if o.Tdmd.Solver_intf.feasible then Some (name, volume)
                else None
              end)
            (Tdmd.Solvers.general ())
        in
        let points =
          List.map
            (fun steps ->
              let (best, improvements), seconds =
                Tdmd_obs.Clock.time (fun () ->
                    let t = Pf.start ~steps ~rng:(Rng.create 4242) ~k inst in
                    let b = Pf.await t in
                    (b, Pf.improvements t))
              in
              match best with
              | None -> failwith "portfolio bench: no feasible answer published"
              | Some b ->
                emit
                  (Json.Obj
                     (("event", Json.String "bench-portfolio")
                     :: ("budget_steps", Json.Int steps)
                     :: ("volume", Json.Int b.Pf.volume)
                     :: ("bandwidth", Json.Float b.Pf.bandwidth)
                     :: ("member", Json.String b.Pf.member)
                     :: ("improvements", Json.Int improvements)
                     :: ("seconds", Json.Float seconds)
                     :: base_fields));
                Table.add_row table
                  [
                    string_of_int steps;
                    string_of_int b.Pf.volume;
                    Printf.sprintf "%.2f" b.Pf.bandwidth;
                    b.Pf.member;
                    string_of_int improvements;
                    Printf.sprintf "%.3f" seconds;
                  ];
                (steps, b.Pf.volume))
            budgets
        in
        (reference, points))
  in
  let best_ref_name, best_ref =
    List.fold_left
      (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
      ("none", min_int) reference
  in
  Table.print table;
  Printf.printf
    "\nbest reference: %s (volume %d)\nwrote %s (%d budgets, %d references)\n"
    best_ref_name best_ref path (List.length budgets) (List.length reference);
  ignore
    (List.fold_left
       (fun prev (steps, v) ->
         if v < prev then
           failwith
             (Printf.sprintf
                "portfolio bench: volume worsened at budget %d (%d < %d)" steps
                v prev);
         v)
       min_int points);
  let _, full = List.nth points (List.length points - 1) in
  if full < best_ref then
    failwith
      (Printf.sprintf
         "portfolio bench: full budget (volume %d) lost to %s (volume %d)"
         full best_ref_name best_ref)
