module G = Tdmd_graph.Digraph
module Rt = Tdmd_tree.Rooted_tree
module Flow = Tdmd_flow.Flow

type incidence = {
  slabs : int array array;
  degree : int array;
  rates : int array;
  hops : int array;
  paths : int array array;
  empty_gain : int array;
  disjoint_paths : int Atomic.t;
}

type t = {
  graph : G.t;
  flows : Flow.t array;
  lambda : float;
  path_volume : int;
  incidence : incidence;
}

(* Slab capacities are powers of two of at least 8 ints, the sizes the
   churn oracle grows its slabs to.  OCaml 5 allocates small blocks from
   one pool per size class, so slabs sized exactly by vertex degree
   would spread over many sparsely used pools and raise peak RSS (see
   EXPERIMENTS.md, "One oracle for static solves and flow churn"). *)
let slab_capacity d =
  let rec up c = if c >= 2 * d then c else up (2 * c) in
  if d = 0 then 0 else up 8

(* One pass to size each vertex's slab, one to fill it in flow-index
   order and sum each vertex's empty-deployment gain. *)
let incidence_of ~n flows =
  let degree = Array.make n 0 in
  for fi = 0 to Array.length flows - 1 do
    let path = flows.(fi).Flow.path in
    for pos = 0 to Array.length path - 1 do
      let v = path.(pos) in
      if v < 0 || v >= n then invalid_arg "Instance.make: flow vertex outside the graph";
      degree.(v) <- degree.(v) + 1
    done
  done;
  let slabs = Array.map (fun d -> Array.make (slab_capacity d) 0) degree in
  let fill = Array.make n 0 and empty_gain = Array.make n 0 in
  for fi = 0 to Array.length flows - 1 do
    let f = flows.(fi) in
    let path = f.Flow.path and rate = f.Flow.rate and hops = Flow.hop_count f in
    for pos = 0 to hops do
      let v = path.(pos) in
      let slab = slabs.(v) and i = fill.(v) in
      slab.(2 * i) <- fi;
      slab.((2 * i) + 1) <- pos;
      fill.(v) <- i + 1;
      empty_gain.(v) <- empty_gain.(v) + (rate * (hops - pos))
    done
  done;
  {
    slabs;
    degree;
    rates = Array.map (fun f -> f.Flow.rate) flows;
    hops = Array.map Flow.hop_count flows;
    paths = Array.map (fun f -> f.Flow.path) flows;
    empty_gain;
    disjoint_paths = Atomic.make (-1);
  }

let of_array ~graph ~flows ~lambda =
  let path_volume =
    Array.fold_left (fun u f -> u + (f.Flow.rate * Flow.hop_count f)) 0 flows
  in
  let incidence = incidence_of ~n:(G.vertex_count graph) flows in
  { graph; flows; lambda; path_volume; incidence }

(* Written so that NaN, which fails every comparison, fails it too. *)
let valid_lambda lambda = 0.0 <= lambda && lambda <= 1.0

let check_lambda who lambda =
  if not (valid_lambda lambda) then invalid_arg (who ^ ": lambda must lie in [0, 1]")

let make ~graph ~flows ~lambda =
  check_lambda "Instance.make" lambda;
  List.iter
    (fun f ->
      match Flow.validate graph f with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Instance.make: " ^ msg))
    flows;
  of_array ~graph ~flows:(Array.of_list flows) ~lambda

let vertex_count t = G.vertex_count t.graph
let flow_count t = Array.length t.flows
let flows t = Array.to_list t.flows
let total_path_volume t = t.path_volume

module Tree = struct
  type general = t

  type t = {
    tree : Rt.t;
    flows : Flow.t array;
    lambda : float;
  }

  let make ~tree ~flows ~lambda =
    check_lambda "Instance.Tree.make" lambda;
    List.iter
      (fun f ->
        let src = Flow.src f in
        if not (Rt.is_leaf tree src) then
          invalid_arg "Instance.Tree.make: flow source is not a leaf";
        let expected = Rt.path_to_root tree src in
        let actual = Array.to_list f.Flow.path in
        if expected <> actual then
          invalid_arg "Instance.Tree.make: flow path is not the leaf-to-root path")
      flows;
    let merged = Flow.merge_same_source flows in
    { tree; flows = Array.of_list merged; lambda }

  let to_general t =
    of_array ~graph:(Rt.to_digraph t.tree) ~flows:t.flows ~lambda:t.lambda

  let subtree_rate t =
    let n = Rt.size t.tree in
    let r = Array.make n 0 in
    Array.iter (fun f -> r.(Flow.src f) <- r.(Flow.src f) + f.Flow.rate) t.flows;
    List.iter
      (fun v ->
        let p = Rt.parent t.tree v in
        if p >= 0 then r.(p) <- r.(p) + r.(v))
      (Rt.postorder t.tree);
    r
end
