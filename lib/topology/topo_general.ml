open Tdmd_prelude
module G = Tdmd_graph.Digraph

let random_spanning_edges rng n =
  (* Random attachment over a shuffled vertex order: connected and
     uniform enough for experiment purposes. *)
  let order = Array.init n (fun i -> i) in
  Rng.shuffle rng order;
  let edges = ref [] in
  for i = 1 to n - 1 do
    let j = Rng.int rng i in
    edges := (order.(i), order.(j)) :: !edges
  done;
  !edges

let erdos_renyi rng n ~p =
  assert (n >= 1 && p >= 0.0 && p <= 1.0);
  let g = G.create n in
  List.iter (fun (u, v) -> G.add_undirected g u v) (random_spanning_edges rng n);
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if (not (G.mem_edge g u v)) && Rng.float rng 1.0 < p then G.add_undirected g u v
    done
  done;
  g

let resize rng g n =
  assert (n >= 1);
  let cur = ref g in
  while G.vertex_count !cur < n do
    let old_n = G.vertex_count !cur in
    let bigger = G.create (old_n + 1) in
    List.iter (fun e -> G.add_edge ~weight:e.G.weight bigger e.G.src e.G.dst) (G.edges !cur);
    let links = 1 + Rng.int rng 2 in
    let chosen = Rng.sample_without_replacement rng old_n (min links old_n) in
    List.iter (fun u -> G.add_undirected bigger old_n u) chosen;
    cur := bigger
  done;
  while G.vertex_count !cur > n do
    let old_n = G.vertex_count !cur in
    (* Try random victims until one's removal keeps the graph connected. *)
    let rec attempt tries =
      if tries = 0 then None
      else begin
        let victim = Rng.int rng old_n in
        let keep = Array.of_list (List.filter (fun v -> v <> victim) (Listx.range 0 (old_n - 1))) in
        let candidate, _ = G.induced !cur keep in
        if G.is_connected_undirected candidate then Some candidate else attempt (tries - 1)
      end
    in
    match attempt (4 * old_n) with
    | Some smaller -> cur := smaller
    | None ->
      (* Extremely unlikely for our generators; fall back to removing a
         degree-1 vertex, which always preserves connectivity. *)
      let victim =
        List.find (fun v -> G.out_degree !cur v <= 1) (Listx.range 0 (old_n - 1))
      in
      let keep = Array.of_list (List.filter (fun v -> v <> victim) (Listx.range 0 (old_n - 1))) in
      let candidate, _ = G.induced !cur keep in
      cur := candidate
  done;
  !cur

let spanning_tree rng g ~root =
  let n = G.vertex_count g in
  let parents = Array.make n (-2) in
  parents.(root) <- -1;
  let q = Queue.create () in
  Queue.add root q;
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    let neigh =
      Array.of_list (List.sort_uniq compare (G.succ g v @ G.pred g v))
    in
    Rng.shuffle rng neigh;
    Array.iter
      (fun u ->
        if parents.(u) = -2 then begin
          parents.(u) <- v;
          Queue.add u q
        end)
      neigh
  done;
  if Array.exists (fun p -> p = -2) parents then
    invalid_arg "Topo_general.spanning_tree: graph not connected";
  Tdmd_tree.Rooted_tree.of_parents ~root parents
