module G = Tdmd_graph.Digraph

type fat_tree = {
  graph : G.t;
  core : int list;
  aggregation : int list;
  edge : int list;
  hosts : int list;
}

let fat_tree k =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Datacenter.fat_tree: k must be even, >= 2";
  let half = k / 2 in
  let n_core = half * half in
  let n_agg = k * half in
  let n_edge = k * half in
  let n_host = k * half * half in
  let n = n_core + n_agg + n_edge + n_host in
  let core i = i in
  let agg pod i = n_core + (pod * half) + i in
  let edge pod i = n_core + n_agg + (pod * half) + i in
  let host pod e i = n_core + n_agg + n_edge + (pod * half * half) + (e * half) + i in
  let g = G.create n in
  for pod = 0 to k - 1 do
    for a = 0 to half - 1 do
      (* Aggregation switch a of this pod uplinks to core group a. *)
      for c = 0 to half - 1 do
        G.add_undirected g (agg pod a) (core ((a * half) + c))
      done;
      (* Full bipartite agg–edge mesh within the pod. *)
      for e = 0 to half - 1 do
        G.add_undirected g (agg pod a) (edge pod e)
      done
    done;
    for e = 0 to half - 1 do
      for h = 0 to half - 1 do
        G.add_undirected g (edge pod e) (host pod e h)
      done
    done
  done;
  let range f count = List.init count f in
  {
    graph = g;
    core = range core n_core;
    aggregation = range (fun i -> n_core + i) n_agg;
    edge = range (fun i -> n_core + n_agg + i) n_edge;
    hosts = range (fun i -> n_core + n_agg + n_edge + i) n_host;
  }
