(* Service chains: the generalisation the paper narrows from.

   An enterprise edge runs a DPI (samples traffic, lambda = 0.9) followed
   by a WAN optimizer (compresses, lambda = 0.4); every flow must cross
   both, in that order.  This example places chain instances on an
   Ark-like WAN with the greedy chain solver and contrasts the
   single-flow optimum (all stages at the source for diminishing chains)
   with what sharing under a budget forces.

   Run with:  dune exec examples/service_chain.exe *)

open Tdmd_prelude
module Chain = Tdmd_extensions.Chain

let () =
  let spec = Chain.make_spec [ 0.9; 0.4 ] in

  (* Single-flow intuition first: positions for one 10-unit flow on an
     8-hop path. *)
  let positions, value = Chain.single_flow spec ~rate:10 ~hops:8 in
  Printf.printf "single 10-unit flow over 8 hops:\n";
  Printf.printf "  optimal stage offsets: %s -> consumption %g (unprocessed: 80)\n\n"
    (String.concat ", " (List.map string_of_int positions))
    value;

  (* Multi-flow shared placement under a budget. *)
  let rng = Rng.create 2718 in
  let ark = Tdmd_topo.Ark.generate rng ~n:36 in
  let graph, dests = Tdmd_topo.Ark.general_of rng ark ~size:24 in
  let flows =
    Tdmd_extensions.Gravity.flows rng graph ~dests
      ~rates:(Tdmd_traffic.Rate_dist.Caida_like { r_max = 20 })
      ~density:0.4 ~link_capacity:40 ()
  in
  let inst = Tdmd.Instance.make ~graph ~flows ~lambda:0.5 in
  Printf.printf "WAN: %d sites, %d flows; chain = [DPI 0.9; WANopt 0.4]\n\n"
    (Tdmd_graph.Digraph.vertex_count graph)
    (List.length flows);
  let volume = float_of_int (Tdmd.Instance.total_path_volume inst) in
  let t = Table.create [ "budget k"; "bandwidth"; "saved"; "instances (vertex:type)" ] in
  List.iter
    (fun k ->
      let r = Chain.greedy ~k spec inst in
      Table.add_row t
        [
          string_of_int k;
          Table.cell_float r.Chain.bandwidth;
          Printf.sprintf "%.1f%%"
            (100.0 *. (1.0 -. (r.Chain.bandwidth /. volume)));
          String.concat " "
            (List.map (fun (v, ty) -> Printf.sprintf "%d:%d" v ty)
               r.Chain.deployment)
          ^ (if r.Chain.feasible then "" else "  (incomplete chains)");
        ])
    [ 2; 4; 6; 10 ];
  Table.print t;
  Printf.printf
    "\nThe greedy co-locates both stages at hub sites (a flow only benefits\n";
  Printf.printf
    "from the compressor after its DPI stage, so instances pair up), and\n";
  Printf.printf
    "small budgets leave tail flows with incomplete chains - the coverage\n";
  Printf.printf "pressure that motivates the paper's feasibility analysis.\n"
