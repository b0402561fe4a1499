(* The two workloads: the instance each serves (fixed per workload),
   the [tdmd serve] flags, and the op stream each client sends.  The
   stream is a pure function of the workload and [--seed]; the server
   only ever receives the generated requests.

   Both are made of millisecond ops that mostly compute.  Workloads of
   sub-millisecond ops (the paper's 22-vertex tree; a journal-bound
   churn on one shard) spread 0.2-0.35 of their median across seeds on
   the shared 2-vCPU host, where wake-ups and fsyncs swing with the
   neighbours' load; [Host] scaling gauges CPU speed, not those, and
   0.25 is the loosest bound the benchmark may set. *)

module P = Tdmd_server.Protocol
module Rng = Tdmd_prelude.Rng
module G = Tdmd_graph.Digraph

(* One closed-loop client's generator state.  Churn clients only ever
   depart flows they arrived themselves, so no interleaving of the two
   clients can make an op answer [conflict]. *)
type client = {
  cid : int;
  mutable rng : Rng.t;
  mutable next_flow : int;
  mutable live : int array;  (* own live flow ids, [0 .. n_live-1] *)
  mutable n_live : int;
  mutable issued : int;
}

type mix =
  | Solves of { k_lo : int; k_hi : int }
      (** static solves cycling through [algos], k uniform in the range *)
  | Churn of { target : int; path : client -> int list }
      (** 80 % arrive/depart holding [target] live flows per client,
          20 % rebalance / live solve / stats *)

type t = {
  name : string;
  serve_args : string list;  (** topology flags; the harness adds the rest *)
  instance : Tdmd.Instance.t;  (** what the server builds, in process *)
  inline : bool;  (** pass [instance] to the server as an [--instance] file *)
  durable : bool;  (** [--journal DIR --fsync always] *)
  shards : int;
  churn_k : int;
  migration_budget : int;
  prefix_ops : int;  (** fixed churn ops after populating *)
  setups : int;  (** full set-ups per run; [setup_s] is their median *)
  late_restarts : int;
      (** extra [recover_s] samples taken after the window; cheap
          start-ups get more *)
  algos : string list;  (** solvers the stream calls *)
  ref_k : int;  (** budget of the reference solver calls *)
  mix : mix;
}

let clients = 2
let setup_seed = 0x5e7

let new_client cid =
  {
    cid;
    rng = Rng.create (setup_seed + cid);
    next_flow = 0;
    live = Array.make 16 0;
    n_live = 0;
    issued = 0;
  }

(* Per-client stream seeds: distinct per client, a pure function of the
   run seed. *)
let reseed c ~seed = c.rng <- Rng.create ((seed * 7919) + (104_729 * (c.cid + 1)))

let flow_id c n = ((c.cid + 1) * 100_000_000) + n

let add_live c id =
  if c.n_live = Array.length c.live then begin
    let bigger = Array.make (2 * c.n_live) 0 in
    Array.blit c.live 0 bigger 0 c.n_live;
    c.live <- bigger
  end;
  c.live.(c.n_live) <- id;
  c.n_live <- c.n_live + 1

let live_ids c = Array.to_list (Array.sub c.live 0 c.n_live)

let arrive c ~path =
  let id = flow_id c c.next_flow in
  c.next_flow <- c.next_flow + 1;
  add_live c id;
  P.Arrive { id; rate = Rng.int_in c.rng 1 8; path }

let depart c =
  let i = Rng.int c.rng c.n_live in
  let id = c.live.(i) in
  c.n_live <- c.n_live - 1;
  c.live.(i) <- c.live.(c.n_live);
  P.Depart id

(* Hold the client's population at [target]: below it arrive, above it
   depart, at it toss a coin — arrivals and departures stay 50/50 and
   the population never leaves [target-1, target+1]. *)
let churn c ~target ~path =
  if c.n_live < target || (c.n_live = target && Rng.bool c.rng) then
    arrive c ~path:(path c)
  else depart c

let fresh_seed c = Rng.int c.rng 1_000_000_000

(* The same construction as [tdmd serve --topology general --size 150
   --seed 9150] (λ 0.5, density 0.5), so the bench holds the server's
   instance. *)
let solve_large () =
  {
    name = "solve-large";
    serve_args = [ "--topology"; "general"; "--size"; "150"; "--seed"; "9150" ];
    instance =
      Tdmd_sim.Scenario.build_general (Rng.create 9150)
        {
          Tdmd_sim.Scenario.default_general with
          Tdmd_sim.Scenario.size = 150;
          lambda = 0.5;
          density = 0.5;
        };
    inline = false;
    durable = false;
    shards = 1;
    churn_k = 8;
    migration_budget = 0;
    prefix_ops = 0;
    setups = 6;
    late_restarts = 5;
    algos = [ "gtp"; "celf"; "gtp-ls" ];
    ref_k = 50;
    mix = Solves { k_lo = 25; k_hi = 50 };
  }

(* ------------------------------------------------------------------ *)
(* churn-mixed: 4 hubs on a path, three 21-vertex arms each            *)
(* ------------------------------------------------------------------ *)

let hubs = 4
let arms = 3
let arm_len = 21

(* Vertex at [depth] (0 = the hub itself) of arm [a] of hub [h]. *)
let arm_vertex ~h ~a ~depth =
  if depth = 0 then h else hubs + (((h * arms) + a) * arm_len) + (depth - 1)

let hub_vertices = hubs + (hubs * arms * arm_len)

let hub_graph () =
  let g = G.create hub_vertices in
  for h = 0 to hubs - 2 do
    G.add_undirected g h (h + 1)
  done;
  for h = 0 to hubs - 1 do
    for a = 0 to arms - 1 do
      for d = 1 to arm_len do
        G.add_undirected g (arm_vertex ~h ~a ~depth:(d - 1)) (arm_vertex ~h ~a ~depth:d)
      done
    done
  done;
  g

(* The server partitions with the default degree-seeded BFS; the hubs
   are the only vertices of degree > 2, so each region must be one hub
   and its three arms (64 vertices).  The stream relies on it. *)
let check_hub_partition g =
  let p = Tdmd_topo.Partition.make g ~shards:hubs in
  let owner v = Tdmd_topo.Partition.owner p v in
  let equal =
    Array.for_all (fun c -> c = hub_vertices / hubs) (Tdmd_topo.Partition.counts p)
  in
  let arms_home =
    List.for_all
      (fun v -> owner v = owner (if v < hubs then v else (v - hubs) / (arms * arm_len)))
      (List.init hub_vertices Fun.id)
  in
  if not (equal && arms_home) then
    failwith "churn-mixed: the default partition does not give one region per hub"

(* A flow inside one region runs down an arm towards its hub.  One
   arrival in 16 continues through the hub to a neighbouring hub (and a
   little way up one of its arms): a cross-shard, two-phase arrival,
   homed on the region holding most of its path. *)
let hub_path c =
  let h = Rng.int c.rng hubs in
  let a = Rng.int c.rng arms in
  if Rng.int c.rng 16 = 0 then begin
    let src = Rng.int_in c.rng 3 6 in
    let h' =
      if h = 0 then 1
      else if h = hubs - 1 then h - 1
      else if Rng.bool c.rng then h - 1
      else h + 1
    in
    let a' = Rng.int c.rng arms in
    let up = Rng.int_in c.rng 0 2 in
    List.init (src + 1) (fun i -> arm_vertex ~h ~a ~depth:(src - i))
    @ List.init (up + 1) (fun i -> arm_vertex ~h:h' ~a:a' ~depth:i)
  end
  else begin
    let src = Rng.int_in c.rng 1 arm_len in
    let len = Rng.int_in c.rng 1 (min src 8) in
    List.init (len + 1) (fun i -> arm_vertex ~h ~a ~depth:(src - i))
  end

let churn_mixed () =
  let inst = Tdmd.Instance.make ~graph:(hub_graph ()) ~flows:[] ~lambda:0.5 in
  check_hub_partition inst.Tdmd.Instance.graph;
  {
    name = "churn-mixed";
    serve_args = [ "--shards"; "4"; "--churn-k"; "8"; "--migration-budget"; "2" ];
    instance = inst;
    inline = true;
    durable = true;
    shards = 4;
    churn_k = 8;
    migration_budget = 2;
    prefix_ops = 2000;
    setups = 2;
    late_restarts = 4;
    algos = [ "gtp" ];
    ref_k = 8;
    mix = Churn { target = 500; path = hub_path };
  }

let catalogue =
  [
    ("solve-large", solve_large);
    ("churn-mixed", churn_mixed);
  ]

let names = List.map fst catalogue
let find name = Option.map (fun make -> make ()) (List.assoc_opt name catalogue)

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)
(* ------------------------------------------------------------------ *)

(* The client's next request. *)
let next w c =
  let r =
    match w.mix with
    | Solves { k_lo; k_hi } ->
      let algo = List.nth w.algos (c.issued mod List.length w.algos) in
      let k = Rng.int_in c.rng k_lo k_hi in
      P.Solve { algo; k; seed = fresh_seed c; target = P.Static }
    | Churn { target; path } ->
      (* 40 % arrive, 40 % depart, 5 % rebalance, 10 % live solve, 5 % stats *)
      let r = Rng.int c.rng 100 in
      if r < 80 then churn c ~target ~path
      else if r < 85 then P.Rebalance { budget = None }
      else if r < 95 then
        P.Solve { algo = "gtp"; k = 8; seed = fresh_seed c; target = P.Live }
      else P.Stats
  in
  c.issued <- c.issued + 1;
  r

(* The fixed set-up history, identical on every run: populate each
   client in turn, then [prefix_ops] arrive/depart ops alternating
   between the clients.  Returns the ops in send order and the clients,
   reseeded from [seed] for the run's own stream. *)
let setup w ~seed =
  let cs = Array.init clients new_client in
  let ops = ref [] in
  (match w.mix with
  | Solves _ -> ()
  | Churn { target; path } ->
    Array.iter
      (fun c ->
        while c.n_live < target do
          ops := arrive c ~path:(path c) :: !ops
        done)
      cs;
    for i = 0 to w.prefix_ops - 1 do
      ops := churn cs.(i mod clients) ~target ~path :: !ops
    done);
  Array.iter (fun c -> reseed c ~seed) cs;
  (List.rev !ops, cs)
