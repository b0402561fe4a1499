(* Quickstart: the paper's Fig. 1 example end to end.

   Build the six-switch network, declare the four flows, and place
   traffic-diminishing middleboxes (lambda = 0.5) with every solver the
   library offers for general topologies.

   Run with:  dune exec examples/quickstart.exe *)

module G = Tdmd_graph.Digraph
module Flow = Tdmd_flow.Flow

let () =
  (* Vertices v1..v6 of Fig. 1 are ids 0..5. *)
  let g = G.create 6 in
  List.iter
    (fun (a, b) -> G.add_undirected g a b)
    [ (4, 2); (2, 0); (5, 2); (2, 1); (5, 1); (3, 1); (1, 0) ];
  let flows =
    [
      Flow.make ~id:0 ~rate:4 ~path:[ 4; 2; 0 ];  (* f1: v5 -> v3 -> v1 *)
      Flow.make ~id:1 ~rate:2 ~path:[ 5; 2; 1 ];  (* f2: v6 -> v3 -> v2 *)
      Flow.make ~id:2 ~rate:2 ~path:[ 5; 1 ];     (* f3: v6 -> v2 *)
      Flow.make ~id:3 ~rate:2 ~path:[ 3; 1 ];     (* f4: v4 -> v2 *)
    ]
  in
  let inst = Tdmd.Instance.make ~graph:g ~flows ~lambda:0.5 in
  Format.printf "Fig. 1 instance: %d switches, %d flows, unprocessed volume %d@."
    (Tdmd.Instance.vertex_count inst)
    (Tdmd.Instance.flow_count inst)
    (Tdmd.Instance.total_path_volume inst);

  (* Every solver returns the same outcome record. *)
  let show name { Tdmd.Solver_intf.placement; bandwidth; feasible; _ } =
    Format.printf "  %-12s P = %a  b(P) = %g%s@." name Tdmd.Placement.pp placement
      bandwidth
      (if feasible then "" else "  (infeasible)")
  in

  List.iter
    (fun k ->
      Format.printf "@.budget k = %d:@." k;
      show "GTP" (Tdmd.Gtp.run ~budget:k inst);
      show "optimal" (Tdmd.Brute.solve ~k inst);
      let rng = Tdmd_prelude.Rng.create 1 in
      show "Random" (Tdmd.Baselines.random rng ~k inst))
    [ 2; 3 ];

  Format.printf
    "@.With k = 3 the optimum places a spam filter on every flow source and@.";
  Format.printf "halves the total bandwidth: 16 -> 8, exactly as in the paper.@."
