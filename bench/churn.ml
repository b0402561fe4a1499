(* churn-timeline: bandwidth vs migrations across rebalance budgets.

   One Temporal flow timeline replayed under the whole solver family:
   pin-only (migration budget 0, the historical engine), incremental-lrs
   at several finite budgets, and recompute-from-scratch GTP after every
   event as the quality ceiling.  Each variant yields one "bench-churn"
   record in BENCH_churn.json; together they trace the
   bandwidth-vs-migrations Pareto curve.  Bandwidth is sampled after
   every event, so the mean rewards staying good during churn rather
   than ending well.  The run fails if a finite budget, or the scratch
   ceiling, loses to pin-only. *)

open Tdmd_prelude
module Json = Tdmd_obs.Json
module Temporal = Tdmd_traffic.Temporal

let n = 48
let k = 6
let lambda = 0.5
let budgets = [ 1; 2; 4; 8 ]

(* A fresh GTP after every event; migrations are the symmetric
   difference between consecutive deployments.  Returns the event
   handler, the current bandwidth and the move count. *)
let scratch_gtp g =
  let live = Hashtbl.create 64 in
  let order = ref [] in
  let placement = ref Tdmd.Placement.empty in
  let moves = ref 0 in
  let bw = ref 0.0 in
  let apply ev =
    (match ev with
    | Temporal.Arrival f ->
      Hashtbl.replace live f.Tdmd_flow.Flow.id f;
      order := f.Tdmd_flow.Flow.id :: !order
    | Temporal.Departure id ->
      Hashtbl.remove live id;
      order := List.filter (fun i -> i <> id) !order);
    (* [order] is newest-first, so [rev_map] restores arrival order. *)
    let flows = List.rev_map (fun id -> Hashtbl.find live id) !order in
    let inst = Tdmd.Instance.make ~graph:g ~flows ~lambda in
    let report = Tdmd.Gtp.run ~budget:k inst in
    let next = report.Tdmd.Solver_intf.placement in
    let diff a b =
      List.length
        (List.filter
           (fun v -> not (Tdmd.Placement.mem b v))
           (Tdmd.Placement.to_list a))
    in
    moves := !moves + diff next !placement + diff !placement next;
    placement := next;
    bw := report.Tdmd.Solver_intf.bandwidth
  in
  (apply, (fun () -> !bw), fun () -> !moves)

let run () =
  print_endline "== churn bench: one timeline, the whole budget family ==\n";
  let rng = Rng.create 4242 in
  let g = Tdmd_topo.Topo_general.erdos_renyi rng n ~p:0.15 in
  let timeline =
    Temporal.generate rng ~horizon:120.0 ~mean_interarrival:0.5
      ~mean_lifetime:8.0 ~draw_flow:(Temporal.random_flow g)
  in
  let events = List.length timeline in
  (* Every variant is an (apply, sample) pair: [apply] consumes one
     event, [sample] reads the bandwidth of the deployment it left
     behind. *)
  let replay ~apply ~sample =
    let sum = ref 0.0 in
    let (), seconds =
      Tdmd_obs.Clock.time (fun () ->
          List.iter
            (fun (_, ev) ->
              apply ev;
              sum := !sum +. sample ())
            timeline)
    in
    (!sum /. float_of_int (max 1 events), sample (), seconds)
  in
  let table =
    Table.create
      [ "variant"; "budget/event"; "mean bw"; "final bw"; "moves";
        "rebalance moves"; "events/s" ]
  in
  let path, (pin_mean, lrs_means, scratch_mean) =
    Harness.with_records "churn" (fun emit ->
        let record ~variant ~budget ~moves ~rebalance_moves
            (mean_bw, final_bw, seconds) =
          let rate = float_of_int events /. Float.max seconds 1e-9 in
          emit
            (Json.Obj
               [
                 ("event", Json.String "bench-churn");
                 ("variant", Json.String variant);
                 ("budget_per_event", Json.Int budget);
                 ("vertices", Json.Int n);
                 ("k", Json.Int k);
                 ("lambda", Json.Float lambda);
                 ("events", Json.Int events);
                 ("mean_bandwidth", Json.Float mean_bw);
                 ("final_bandwidth", Json.Float final_bw);
                 ("moves", Json.Int moves);
                 ("rebalance_moves", Json.Int rebalance_moves);
                 ("seconds", Json.Float seconds);
                 ("events_per_s", Json.Float rate);
               ]);
          Table.add_row table
            [
              variant;
              string_of_int budget;
              Printf.sprintf "%.2f" mean_bw;
              Printf.sprintf "%.2f" final_bw;
              string_of_int moves;
              string_of_int rebalance_moves;
              Printf.sprintf "%.0f" rate;
            ];
          mean_bw
        in
        let incremental ~variant ~migration_budget =
          let t =
            Tdmd.Incremental.create ~migration_budget ~graph:g ~lambda ~k ()
          in
          let apply = function
            | Temporal.Arrival f -> Tdmd.Incremental.arrive t f
            | Temporal.Departure id -> Tdmd.Incremental.depart t id
          in
          let result =
            replay ~apply ~sample:(fun () -> Tdmd.Incremental.bandwidth t)
          in
          record ~variant ~budget:migration_budget
            ~moves:(Tdmd.Incremental.moves t)
            ~rebalance_moves:(Tdmd.Incremental.rebalance_moves t)
            result
        in
        let pin_mean = incremental ~variant:"pin-only" ~migration_budget:0 in
        let lrs_means =
          List.map
            (fun b ->
              incremental
                ~variant:(Printf.sprintf "incremental-lrs(%d)" b)
                ~migration_budget:b)
            budgets
        in
        let apply, sample, moves = scratch_gtp g in
        let result = replay ~apply ~sample in
        let scratch_mean =
          record ~variant:"scratch-gtp" ~budget:(2 * k) ~moves:(moves ())
            ~rebalance_moves:0 result
        in
        (pin_mean, lrs_means, scratch_mean))
  in
  Table.print table;
  Printf.printf "\nwrote %s (%d variants, %d events)\n" path
    (2 + List.length budgets)
    events;
  (* The whole point of the budget family: finite budgets must not lose
     to pin-only, and the scratch ceiling bounds them below. *)
  if List.exists (fun lrs -> lrs > pin_mean +. 1e-9) lrs_means then
    failwith "churn bench: a finite budget lost to pin-only";
  if scratch_mean > pin_mean +. 1e-9 then
    failwith "churn bench: scratch GTP lost to pin-only"
