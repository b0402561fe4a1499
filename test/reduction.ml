(* Both directions of the paper's Theorem 1 reduction.

   Forward ([to_tdmd]): a set-cover instance becomes a TDMD feasibility
   instance with one vertex per set on a fully connected topology and
   one rate-1 flow per element, whose path visits the vertices of the
   sets containing it in ascending order; an element in no set is
   refused.  Backward ([of_flows]): any TDMD instance's feasibility
   question is a set-cover instance whose universe is the flow
   positions and whose set [v] is the flows through [v]. *)

module G = Tdmd_graph.Digraph
module Flow = Tdmd_flow.Flow

let to_tdmd (sc : Setcover.t) =
  let n_sets = Array.length sc.Setcover.sets in
  let g = G.create n_sets in
  for u = 0 to n_sets - 1 do
    for v = 0 to n_sets - 1 do
      if u <> v then G.add_edge g u v
    done
  done;
  let flows =
    List.init sc.Setcover.universe (fun e ->
        let path =
          List.filter
            (fun i -> List.mem e sc.Setcover.sets.(i))
            (List.init n_sets (fun i -> i))
        in
        if path = [] then
          invalid_arg "Reduction.to_tdmd: element contained in no set";
        Flow.make ~id:e ~rate:1 ~path)
  in
  (g, flows)

let of_flows ~vertex_count flows =
  let indexed = List.mapi (fun i f -> (i, f)) flows in
  let sets =
    List.init vertex_count (fun v ->
        List.filter_map
          (fun (i, f) -> if Array.mem v f.Flow.path then Some i else None)
          indexed)
  in
  Setcover.make ~universe:(List.length flows) sets
