type t = {
  root : int;
  parents : int array;
  children : int list array;  (* ascending child order *)
  depths : int array;
}

let build root parents =
  let n = Array.length parents in
  if root < 0 || root >= n then invalid_arg "Rooted_tree: root out of range";
  if parents.(root) <> -1 then invalid_arg "Rooted_tree: root must have parent -1";
  let children = Array.make n [] in
  for v = n - 1 downto 0 do
    let p = parents.(v) in
    if v <> root then begin
      if p < 0 || p >= n then invalid_arg "Rooted_tree: orphan vertex";
      children.(p) <- v :: children.(p)
    end
  done;
  (* Depths via BFS from the root; also validates acyclicity/connectivity. *)
  let depths = Array.make n (-1) in
  depths.(root) <- 0;
  let q = Queue.create () in
  Queue.add root q;
  let visited = ref 1 in
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    List.iter
      (fun c ->
        depths.(c) <- depths.(v) + 1;
        incr visited;
        Queue.add c q)
      children.(v)
  done;
  if !visited <> n then invalid_arg "Rooted_tree: not a connected tree";
  { root; parents; children; depths }

let of_parents ~root parents = build root (Array.copy parents)

let of_digraph g ~root =
  let n = Tdmd_graph.Digraph.vertex_count g in
  let parents = Array.make n (-2) in
  parents.(root) <- -1;
  let q = Queue.create () in
  Queue.add root q;
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    let neighbours = Tdmd_graph.Digraph.succ g v @ Tdmd_graph.Digraph.pred g v in
    List.iter
      (fun u ->
        if parents.(u) = -2 then begin
          parents.(u) <- v;
          Queue.add u q
        end)
      (List.sort_uniq compare neighbours)
  done;
  if Array.exists (fun p -> p = -2) parents then
    invalid_arg "Rooted_tree.of_digraph: graph is not connected";
  (* Undirected edge count must be exactly n-1 for a tree. *)
  let undirected =
    List.fold_left
      (fun acc e ->
        let open Tdmd_graph.Digraph in
        if e.src < e.dst || not (mem_edge g e.dst e.src) then acc + 1 else acc)
      0
      (Tdmd_graph.Digraph.edges g)
  in
  if undirected <> n - 1 then invalid_arg "Rooted_tree.of_digraph: graph has extra edges";
  build root parents

let size t = Array.length t.parents
let root t = t.root
let parent t v = t.parents.(v)
let children t v = t.children.(v)
let depth t v = t.depths.(v)
let is_leaf t v = t.children.(v) = []

let leaves t =
  let acc = ref [] in
  for v = size t - 1 downto 0 do
    if is_leaf t v then acc := v :: !acc
  done;
  !acc

let height t = Array.fold_left max 0 t.depths

let postorder t =
  let acc = ref [] in
  let rec go v =
    List.iter go t.children.(v);
    acc := v :: !acc
  in
  go t.root;
  List.rev !acc

let path_to_root t v =
  let rec go v acc = if v = t.root then List.rev (v :: acc) else go t.parents.(v) (v :: acc) in
  go v []

let to_digraph t =
  let g = Tdmd_graph.Digraph.create (size t) in
  Array.iteri (fun v p -> if p >= 0 then Tdmd_graph.Digraph.add_edge g v p) t.parents;
  g
