(* IDS placement in a fat-tree data center (with capacity extension).

   The paper motivates tree-structured deployments with data-center
   fabrics (Fat-tree, BCube - Sec. 5).  Here hosts of a k=4 fat-tree
   stream telemetry to a collector host; every flow must cross an
   Intrusion Detection System that samples-and-forwards at lambda = 0.3.
   We place IDS instances with GTP, then re-solve under the capacitated
   extension to see how per-box throughput limits spread the deployment.

   Run with:  dune exec examples/datacenter_fattree.exe *)

open Tdmd_prelude
module G = Tdmd_graph.Digraph
module Flow = Tdmd_flow.Flow

let () =
  let ft = Tdmd_topo.Datacenter.fat_tree 4 in
  let g = ft.Tdmd_topo.Datacenter.graph in
  let hosts = ft.Tdmd_topo.Datacenter.hosts in
  let collector = List.hd hosts in
  let rng = Rng.create 99 in
  (* Every other host sends one telemetry flow to the collector along
     the hop-shortest route. *)
  let flows =
    List.filteri (fun i _ -> i > 0) hosts
    |> List.mapi (fun id host ->
           match Tdmd_graph.Bfs.shortest_path g ~src:host ~dst:collector with
           | None -> assert false
           | Some path ->
             Flow.make ~id ~rate:(Rng.int_in rng 1 8) ~path)
  in
  let inst = Tdmd.Instance.make ~graph:g ~flows ~lambda:0.3 in
  Format.printf
    "Fat-tree k=4: %d switches+hosts, %d telemetry flows -> collector %d@."
    (G.vertex_count g) (List.length flows) collector;
  Format.printf "IDS: lambda = 0.3 (sampled forwarding)@.@.";

  let volume = float_of_int (Tdmd.Instance.total_path_volume inst) in
  let t = Table.create [ "k"; "GTP b(P)"; "saved"; "deployment" ] in
  List.iter
    (fun k ->
      let r = Tdmd.Gtp.run ~budget:k inst in
      Table.add_row t
        [
          string_of_int k;
          Table.cell_float r.Tdmd.Solver_intf.bandwidth;
          Printf.sprintf "%.1f%%"
            (100.0 *. (1.0 -. (r.Tdmd.Solver_intf.bandwidth /. volume)));
          Format.asprintf "%a" Tdmd.Placement.pp r.Tdmd.Solver_intf.placement;
        ])
    [ 1; 2; 4; 8 ];
  Table.print t;

  (* Capacity extension: an IDS instance inspects at most [cap] rate
     units, so tight capacities force a wider deployment. *)
  Format.printf "@.Capacitated IDS (k = 4):@.";
  let ct = Table.create [ "capacity"; "bandwidth"; "unserved flows"; "deployment" ] in
  List.iter
    (fun capacity ->
      let r = Tdmd_extensions.Capacitated.greedy ~k:4 ~capacity inst in
      Table.add_row ct
        [
          string_of_int capacity;
          Table.cell_float r.Tdmd.Solver_intf.bandwidth;
          string_of_int
            (Tdmd_obs.Telemetry.get_count r.Tdmd.Solver_intf.telemetry "unserved_flows");
          Format.asprintf "%a" Tdmd.Placement.pp r.Tdmd.Solver_intf.placement;
        ])
    [ 10; 25; 50; 1000 ];
  Table.print ct;
  Format.printf
    "@.Small capacities leave flows uninspected or push IDSs towards the@.";
  Format.printf
    "edge; loose capacities converge to the pure bandwidth-greedy plan@.";
  Format.printf
    "(which, unlike GTP, does not spend picks on covering stragglers).@."
