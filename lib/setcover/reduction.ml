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
          (fun (i, f) -> if Flow.mem_vertex f v then Some i else None)
          indexed)
  in
  Setcover.make ~universe:(List.length flows) sets
