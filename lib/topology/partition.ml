module G = Tdmd_graph.Digraph

type t = { shards : int; owner : int array }

let shards t = t.shards
let vertex_count t = Array.length t.owner

let owner t v =
  if v < 0 || v >= Array.length t.owner then
    invalid_arg (Printf.sprintf "Partition.owner: vertex %d outside the graph" v);
  t.owner.(v)

let trivial ~n =
  if n < 1 then invalid_arg "Partition.trivial: n must be >= 1";
  { shards = 1; owner = Array.make n 0 }

(* Deterministic seed choice when the caller has no hub list: the
   highest-degree vertices are the hubs of every topology this repo
   generates (Ark backbones, fat-tree cores), and ties break on the
   vertex id so the same graph always partitions the same way. *)
let default_seeds g ~shards =
  let n = G.vertex_count g in
  let deg v = G.out_degree g v + G.in_degree g v in
  let by_degree = List.init n (fun v -> v) in
  let by_degree =
    List.stable_sort
      (fun a b ->
        match compare (deg b) (deg a) with 0 -> compare a b | c -> c)
      by_degree
  in
  List.filteri (fun i _ -> i < shards) by_degree

(* Multi-source BFS: seed [i] roots shard [i mod shards], every vertex
   joins the shard of the first seed region to reach it.  The queue is
   processed in insertion order and neighbours in sorted order, so the
   assignment is a pure function of (graph, seeds, shards) — restarts
   and replicas always agree.  Vertices unreachable from every seed
   (impossible on the generated topologies, which are connected) fall
   back to shard 0. *)
let make ?seeds g ~shards =
  let n = G.vertex_count g in
  if shards < 1 then invalid_arg "Partition.make: shards must be >= 1";
  if shards = 1 then trivial ~n
  else begin
    let seeds =
      match seeds with
      | Some [] | None -> default_seeds g ~shards
      | Some l ->
        List.iter
          (fun v ->
            if v < 0 || v >= n then
              invalid_arg
                (Printf.sprintf "Partition.make: seed %d outside the graph" v))
          l;
        l
    in
    let owner = Array.make n (-1) in
    let q = Queue.create () in
    List.iteri
      (fun i v ->
        if owner.(v) < 0 then begin
          owner.(v) <- i mod shards;
          Queue.push v q
        end)
      seeds;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      let next = List.sort_uniq compare (G.succ g u @ G.pred g u) in
      List.iter
        (fun v ->
          if owner.(v) < 0 then begin
            owner.(v) <- owner.(u);
            Queue.push v q
          end)
        next
    done;
    Array.iteri (fun v s -> if s < 0 then owner.(v) <- 0) owner;
    { shards; owner }
  end

type ownership = Owned of int | Cross of { home : int }

(* A path's home is the shard owning the most of its vertices (ties to
   the lowest shard id): cross-shard flows land on the engine that sees
   most of their footprint, so most of their candidate middlebox sites
   are local ones. *)
let ownership t path =
  if Array.length path = 0 then invalid_arg "Partition.ownership: empty path";
  let counts = Array.make t.shards 0 in
  Array.iter (fun v -> counts.(owner t v) <- counts.(owner t v) + 1) path;
  let home = ref 0 in
  Array.iteri (fun s c -> if c > counts.(!home) then home := s) counts;
  if counts.(!home) = Array.length path then Owned !home else Cross { home = !home }

let counts t =
  let c = Array.make t.shards 0 in
  Array.iter (fun s -> c.(s) <- c.(s) + 1) t.owner;
  c
