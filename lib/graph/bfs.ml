let search g s =
  let n = Digraph.vertex_count g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let q = Queue.create () in
  dist.(s) <- 0;
  Queue.add s q;
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    Digraph.iter_succ g v (fun u _ ->
        if dist.(u) = max_int then begin
          dist.(u) <- dist.(v) + 1;
          parent.(u) <- v;
          Queue.add u q
        end)
  done;
  (dist, parent)

let shortest_path g ~src ~dst =
  let dist, parent = search g src in
  if dist.(dst) = max_int then None
  else begin
    let rec walk v acc = if v = src then src :: acc else walk parent.(v) (v :: acc) in
    Some (walk dst [])
  end
