module Oracle = Tdmd.Inc_oracle
module Rng = Tdmd_prelude.Rng
module Pool = Tdmd_prelude.Parallel.Pool
module Telemetry = Tdmd_obs.Telemetry

type member = Anneal | Genetic | Seed of string

let member_name = function
  | Anneal -> "anneal"
  | Genetic -> "genetic"
  | Seed s -> "seed:" ^ s

let default_members = [ Seed "gtp"; Anneal; Genetic; Seed "hat"; Seed "random" ]

type best = {
  volume : int;
  bandwidth : float;
  placement : int list;
  member : string;
  rank : int;
}

type t = {
  inst : Tdmd.Instance.t;
  k : int;
  steps : int option;
  tree : Tdmd.Instance.Tree.t option;
  cell : best option Atomic.t;
  improvements : int Atomic.t;
  pool : Pool.t;
  member_count : int;
  finished : int Atomic.t;
  fallback : int list;
  fallback_feasible : bool;
  fallback_volume : int;
  on_publish : (best -> unit) option;
  mutable joined : bool;
}

(* Strict total order on candidates: higher exact volume first, then the
   lexicographically smaller placement, then the lower member rank.
   Because the order is total and publication is a CAS loop keeping the
   maximum, the final cell content is the order-free maximum over every
   candidate any member ever published — independent of scheduling, so
   step-budgeted runs are bit-identical across domain counts. *)
let better a b =
  a.volume > b.volume
  || (a.volume = b.volume
     &&
     let c = Search.compare_verts a.placement b.placement in
     c < 0 || (c = 0 && a.rank < b.rank))

let publish t oracle ~member ~rank verts =
  let volume, ok = Search.eval oracle verts in
  if ok then begin
    let cand =
      {
        volume;
        bandwidth = Oracle.bandwidth oracle;
        placement = Search.sorted_verts oracle;
        member;
        rank;
      }
    in
    let rec cas () =
      let cur = Atomic.get t.cell in
      let improves = match cur with None -> true | Some b -> better cand b in
      if improves then
        if Atomic.compare_and_set t.cell cur (Some cand) then begin
          Atomic.incr t.improvements;
          match t.on_publish with None -> () | Some f -> f cand
        end
        else cas ()
    in
    cas ()
  end

let member_steps t = match t.steps with Some s -> s | None -> max_int

let run_member t ~rank ~rng m =
  let oracle = Oracle.create t.inst in
  let name = member_name m in
  let should_stop () = Pool.cancelling t.pool in
  let on_best ~volume:_ ~placement = publish t oracle ~member:name ~rank placement in
  match m with
  | Anneal ->
    ignore
      (Anneal.run ~rng ~k:t.k ~steps:(member_steps t) ~should_stop ~on_best
         t.inst)
  | Genetic ->
    ignore
      (Genetic.run ~rng ~k:t.k ~steps:(member_steps t) ~should_stop ~on_best
         t.inst)
  | Seed algo -> (
    let publish_outcome (o : Tdmd.Solver_intf.outcome) =
      if o.Tdmd.Solver_intf.feasible then
        publish t oracle ~member:name ~rank
          (Tdmd.Placement.to_list o.Tdmd.Solver_intf.placement)
    in
    match Tdmd.Solvers.find_general algo with
    | Some solve ->
      (* Restart loop: each restart gets an independent rng split.  Two
         identical consecutive results mean the solver is deterministic
         for this instance — further restarts cannot publish anything
         new, so stop early. *)
      let restart_cap =
        match t.steps with Some s -> max 1 (s / 64) | None -> max_int
      in
      let rec go i prev =
        if i < restart_cap && not (should_stop ()) then begin
          let o = solve ~rng:(Rng.split rng) ~k:t.k t.inst in
          let verts = Tdmd.Placement.to_list o.Tdmd.Solver_intf.placement in
          publish_outcome o;
          match prev with
          | Some p when Search.compare_verts p verts = 0 -> ()
          | _ -> go (i + 1) (Some verts)
        end
      in
      go 0 None
    | None -> (
      (* Tree-only names (e.g. "hat") contribute when the caller passed
         the tree view; [Tree.to_general] preserves vertex ids so the
         result evaluates directly on the general oracle. *)
      match t.tree with
      | None -> ()
      | Some tree -> (
        match Tdmd.Solvers.find_tree algo with
        | None -> ()
        | Some solve -> publish_outcome (solve ~rng:(Rng.split rng) ~k:t.k tree))
      ))

let start ?(members = default_members)
    ?(domains = Tdmd_prelude.Parallel.recommended_domains ()) ?steps ?tree
    ?on_publish ~rng ~k inst =
  let member_count = List.length members in
  if member_count = 0 then invalid_arg "Portfolio.start: members is empty";
  if k < 0 then invalid_arg "Portfolio.start: k must be >= 0";
  (* Fixed per-member split of the one root seed, in member-list order:
     reproducibility does not depend on which domain runs what. *)
  let seeded = List.mapi (fun i m -> (i + 1, Rng.split rng, m)) members in
  let scratch = Oracle.create inst in
  let fallback = Search.greedy_cover inst ~k in
  let fallback_volume, fallback_feasible = Search.eval scratch fallback in
  let pool =
    Pool.create
      ~domains:(max 1 (min domains member_count))
      ~capacity:member_count ()
  in
  let t =
    {
      inst;
      k;
      steps;
      tree;
      cell = Atomic.make None;
      improvements = Atomic.make 0;
      pool;
      member_count;
      finished = Atomic.make 0;
      fallback;
      fallback_feasible;
      fallback_volume;
      on_publish;
      joined = false;
    }
  in
  (* The greedy cover is published synchronously (rank 0, member
     "cover") before any member starts: a deadline-bounded await always
     has a feasible answer in hand when one is this easy to build. *)
  if fallback_feasible then publish t scratch ~member:"cover" ~rank:0 fallback;
  List.iter
    (fun (rank, mrng, m) ->
      let accepted =
        Pool.submit t.pool (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.incr t.finished)
              (fun () -> run_member t ~rank ~rng:mrng m))
      in
      if not accepted then Atomic.incr t.finished)
    seeded;
  t

let best_now t = Atomic.get t.cell
let improvements t = Atomic.get t.improvements

let stop t =
  if not t.joined then begin
    t.joined <- true;
    Pool.cancel t.pool;
    Pool.shutdown t.pool
  end

let now_ms () = Int64.to_float (Tdmd_obs.Clock.now_ns ()) /. 1e6

let await ?deadline_ms t =
  (match deadline_ms with
  | None ->
    while Atomic.get t.finished < t.member_count do
      Unix.sleepf 0.001
    done
  | Some ms ->
    let until = now_ms () +. float_of_int (max 0 ms) in
    while Atomic.get t.finished < t.member_count && now_ms () < until do
      Unix.sleepf 0.001
    done);
  stop t;
  best_now t

let outcome_of ?telemetry t best =
  let tel = match telemetry with Some tel -> tel | None -> Telemetry.create () in
  Telemetry.set tel "members" (Telemetry.Int t.member_count);
  Telemetry.set tel "improvements" (Telemetry.Int (improvements t));
  (match t.steps with
  | Some s -> Telemetry.set tel "member_steps" (Telemetry.Int s)
  | None -> ());
  let placement, volume, feasible, member =
    match best with
    | Some b -> (b.placement, b.volume, true, b.member)
    | None -> (t.fallback, t.fallback_volume, t.fallback_feasible, "fallback")
  in
  Telemetry.set tel "member" (Telemetry.String member);
  Telemetry.set tel "placement_size" (Telemetry.Int (List.length placement));
  Tdmd.Solver_intf.outcome ~lambda:t.inst.Tdmd.Instance.lambda
    ~total:(Tdmd.Instance.total_path_volume t.inst)
    ~placement:(Tdmd.Placement.of_list placement) ~volume ~feasible ~telemetry:tel
