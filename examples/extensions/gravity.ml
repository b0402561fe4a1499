(* Gravity-model workload: [Tdmd_traffic.Workload.general_flows] with
   source vertices drawn in proportion to a per-vertex "mass" (its
   undirected degree, the classical proxy), so hub-adjacent sites
   originate more traffic, closer to measured WAN matrices than the
   uniform draw.  Flows go to random members of [dests] on BFS shortest
   paths until the density target is met; after 100·|V| failed draws in
   a row (every vertex a destination, say) it stops short. *)

module G = Tdmd_graph.Digraph
module Rng = Tdmd_prelude.Rng
module Flow = Tdmd_flow.Flow

let flows rng g ~dests ~rates ~density ?(link_capacity = 100) () =
  let n = G.vertex_count g and links = G.edge_count g in
  if links = 0 || dests = [] then []
  else begin
    (* Urn of vertices repeated by (undirected) degree. *)
    let urn =
      Array.of_list
        (List.concat_map
           (fun v ->
             let d = List.length (List.sort_uniq compare (G.succ g v @ G.pred g v)) in
             List.init (max d 1) (fun _ -> v))
           (List.rev (List.init n Fun.id)))
    in
    let dests = Array.of_list dests in
    let target = int_of_float (Float.ceil (density *. float_of_int (links * link_capacity))) in
    let rec go id volume failures acc =
      if volume >= target || failures > 100 * n then List.rev acc
      else begin
        let src = Rng.choose rng urn in
        let dst = Rng.choose rng dests in
        match if src = dst then None else Tdmd_graph.Bfs.shortest_path g ~src ~dst with
        | None -> go id volume (failures + 1) acc
        | Some path ->
          let f = Flow.make ~id ~rate:(Tdmd_traffic.Rate_dist.sample rates rng) ~path in
          go (id + 1) (volume + (f.Flow.rate * Flow.hop_count f)) 0 (f :: acc)
      end
    in
    go 0 0 0 []
  end
