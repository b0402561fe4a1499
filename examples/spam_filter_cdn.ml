(* Spam filters at a CDN-style aggregation tree.

   The paper's headline use case (Sec. 1): spam filters cut 100% of the
   matched traffic (lambda = 0), and the operator can afford only k
   filter instances.  We model a content-delivery aggregation tree whose
   leaves are edge PoPs sending CAIDA-like flow mixes towards the origin
   at the root, and compare every tree solver at several budgets.

   Run with:  dune exec examples/spam_filter_cdn.exe *)

open Tdmd_prelude
module Rt = Tdmd_tree.Rooted_tree

let () =
  let rng = Rng.create 2024 in
  (* Aggregation tree: origin 0 -> regions 1-3 -> nine edge PoPs, each
     vertex's parent (v - 1) / 3. *)
  let tree = Rt.of_parents ~root:0 (Array.init 13 (fun v -> if v = 0 then -1 else (v - 1) / 3)) in
  let flows =
    Tdmd_traffic.Workload.tree_flows rng tree
      ~rates:(Tdmd_traffic.Rate_dist.Caida_like { r_max = 12 })
      ~density:0.5 ~link_capacity:25 ()
  in
  let inst = Tdmd.Instance.Tree.make ~tree ~flows ~lambda:0.0 in
  let volume = Tdmd.Instance.total_path_volume (Tdmd.Instance.Tree.to_general inst) in
  Format.printf
    "CDN tree: %d nodes (%d PoPs), %d distinct flows, unfiltered volume %d@."
    (Rt.size tree)
    (List.length (Rt.leaves tree))
    (Array.length inst.Tdmd.Instance.Tree.flows)
    volume;
  Format.printf "Spam filter: lambda = 0 (matched traffic is dropped entirely)@.@.";

  let t = Table.create [ "k"; "DP (optimal)"; "HAT"; "GTP"; "filters at" ] in
  List.iter
    (fun k ->
      let dp = Tdmd.Dp.solve ~k inst in
      let hat = Tdmd.Hat.run ~k inst in
      let gtp = Tdmd.Gtp.run ~budget:k (Tdmd.Instance.Tree.to_general inst) in
      Table.add_row t
        [
          string_of_int k;
          Table.cell_float dp.Tdmd.Solver_intf.bandwidth;
          Table.cell_float hat.Tdmd.Solver_intf.bandwidth;
          Table.cell_float gtp.Tdmd.Solver_intf.bandwidth;
          Format.asprintf "%a" Tdmd.Placement.pp dp.Tdmd.Solver_intf.placement;
        ])
    [ 1; 2; 4; 6; 9 ];
  Table.print t;
  Format.printf
    "@.Reading: with few filters the optimum pushes them towards the origin@.";
  Format.printf
    "(sharing); as k grows they migrate to the PoPs, intercepting spam at@.";
  Format.printf "the source - the trade-off the paper's Fig. 1 illustrates.@."
