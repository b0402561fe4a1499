(* Maintaining a deployment under flow churn.

   Static placement is solved per snapshot by the paper; in operation,
   flows arrive and depart continuously.  This example drives the
   incremental maintainer over a Poisson arrival/departure timeline on
   an Ark-like WAN and compares it, at every event, against solving the
   snapshot from scratch with GTP - plotting the classic
   quality-vs-churn trade-off.

   Run with:  dune exec examples/dynamic_flows.exe *)

open Tdmd_prelude
module Flow = Tdmd_flow.Flow

let () =
  let rng = Rng.create 314 in
  let ark = Tdmd_topo.Ark.generate rng ~n:40 in
  let graph, dests = Tdmd_topo.Ark.general_of rng ark ~size:26 in
  let dest_arr = Array.of_list dests in
  let n = Tdmd_graph.Digraph.vertex_count graph in
  let k = 6 in
  Printf.printf "WAN: %d sites, %d collectors, budget %d middleboxes (lambda 0.5)\n\n"
    n (Array.length dest_arr) k;

  let timeline =
    Tdmd_traffic.Temporal.generate rng ~horizon:40.0 ~mean_interarrival:1.2
      ~mean_lifetime:10.0
      ~draw_flow:(Tdmd_traffic.Temporal.random_flow ~dests:dest_arr graph)
  in
  Printf.printf "timeline: %d events over 40 time units\n\n" (List.length timeline);

  let inc = Tdmd.Incremental.create ~graph ~lambda:0.5 ~k () in
  let t = Table.create [ "time"; "event"; "flows"; "b(maintained)"; "b(scratch GTP)"; "moves" ] in
  let scratch_total_moves = ref 0 in
  let last_scratch = ref Tdmd.Placement.empty in
  List.iter
    (fun (time, ev) ->
      let label =
        match ev with
        | Tdmd_traffic.Temporal.Arrival f ->
          Tdmd.Incremental.arrive inc f;
          Printf.sprintf "+f%d (r=%d)" f.Flow.id f.Flow.rate
        | Tdmd_traffic.Temporal.Departure id ->
          Tdmd.Incremental.depart inc id;
          Printf.sprintf "-f%d" id
      in
      let scratch = Tdmd.Gtp.run ~budget:k (Tdmd.Incremental.instance inc) in
      (* Count how much a naive re-solve would churn the deployment. *)
      let diff a b =
        List.length
          (List.filter
             (fun v -> not (Tdmd.Placement.mem b v))
             (Tdmd.Placement.to_list a))
      in
      scratch_total_moves :=
        !scratch_total_moves
        + diff scratch.Tdmd.Solver_intf.placement !last_scratch
        + diff !last_scratch scratch.Tdmd.Solver_intf.placement;
      last_scratch := scratch.Tdmd.Solver_intf.placement;
      Table.add_row t
        [
          Printf.sprintf "%.1f" time;
          label;
          string_of_int (List.length (Tdmd.Incremental.flows inc));
          Table.cell_float (Tdmd.Incremental.bandwidth inc);
          Table.cell_float scratch.Tdmd.Solver_intf.bandwidth;
          string_of_int (Tdmd.Incremental.moves inc);
        ])
    (Tdmd_prelude.Listx.take 18 timeline);
  Table.print t;
  Printf.printf
    "\nMaintained deployment: %d moves total; re-solving from scratch at every\n"
    (Tdmd.Incremental.moves inc);
  Printf.printf
    "event would have churned %d box moves for the bandwidth in column 5.\n"
    !scratch_total_moves
