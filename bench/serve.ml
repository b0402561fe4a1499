(* serve: closed-loop clients against an in-process `tdmd serve`.

   The solve sweep runs solve(gtp) on the default tree scenario at
   rising client concurrency, after checking that a served answer is
   bit-identical to a direct registry call.  The shard sweep runs
   closed-loop churn (arrive/depart) against a durable sharded engine
   on a 256-vertex line at a fixed client count, so the rps column
   isolates what sharding buys: each shard's churn engine scans only its
   own region's flows, and the shards' group commits overlap.  Per-shard
   queue/batch counters come back over the wire via the [stats] op.
   One "bench-serve" record per concurrency level and one
   "bench-serve-shards" record per shard count go to BENCH_serve.json. *)

open Tdmd_prelude
open Tdmd_sim
module Json = Tdmd_obs.Json
module Client = Tdmd_server.Client
module P = Tdmd_server.Protocol

(* Client concurrency levels of the solve sweep, shard counts of the
   shard sweep. *)
let levels = if Harness.quick then [ 1; 4 ] else [ 1; 2; 4; 8; 16 ]
let shard_levels = if Harness.quick then [ 1; 4 ] else [ 1; 2; 4; 8 ]

let acked = function Ok j -> Harness.is_ok j | Error _ -> false

(* A load's fields in record order, split around where the shard
   records insert their speedup. *)
let counts (l : Harness.load) =
  [
    ("requests", Json.Int l.Harness.requests);
    ("errors", Json.Int l.Harness.errors);
    ("wall_seconds", Json.Float l.Harness.wall_s);
    ("throughput_rps", Json.Float l.Harness.rps);
  ]

let percentiles (l : Harness.load) =
  [
    ("p50_ms", Json.Float l.Harness.p50_ms);
    ("p95_ms", Json.Float l.Harness.p95_ms);
    ("p99_ms", Json.Float l.Harness.p99_ms);
  ]

let check_served_answer addr ~k tree_inst =
  let c = Result.get_ok (Client.connect_retry addr) in
  let response =
    Client.rpc c (P.Solve { algo = "gtp"; k; seed = 1; target = P.Static })
  in
  Client.close c;
  let direct =
    (Option.get (Tdmd.Solvers.on_tree "gtp")) ~rng:(Rng.create 1) ~k tree_inst
  in
  match response with
  | Ok resp ->
    let served_placement =
      match Json.member "placement" resp with
      | Some (Json.List vs) ->
        List.filter_map (function Json.Int v -> Some v | _ -> None) vs
      | _ -> []
    in
    if
      served_placement
      <> Tdmd.Placement.to_list direct.Tdmd.Solver_intf.placement
      || Json.member "bandwidth" resp
         <> Some (Json.Float direct.Tdmd.Solver_intf.bandwidth)
    then failwith "serve bench: served answer differs from direct call"
  | Error msg -> failwith ("serve bench: " ^ msg)

let solve_sweep emit =
  let per_client = if Harness.quick then 8 else 50 in
  let rng = Rng.create 4242 in
  let tree_inst = Scenario.build_tree rng Scenario.default_tree in
  let k = Scenario.default_tree.Scenario.k in
  let engine =
    Tdmd_server.Engine.create
      ~config:
        {
          Tdmd_server.Session.Config.default with
          Tdmd_server.Session.Config.churn_k = k;
        }
      (Tdmd_server.Engine.Tree tree_inst)
  in
  print_endline "== serve bench: closed-loop clients, solve(gtp) ==\n";
  let table =
    Table.create
      [ "clients"; "requests"; "wall (s)"; "req/s"; "p50 (ms)"; "p95 (ms)"; "p99 (ms)" ]
  in
  Harness.with_server ~domains:(Parallel.recommended_domains ()) engine
    (fun addr ->
      check_served_answer addr ~k tree_inst;
      List.iter
        (fun clients ->
          let l =
            Harness.closed_loop addr ~clients ~per_client (fun ci c r ->
                acked
                  (Client.rpc c
                     (P.Solve
                        {
                          algo = "gtp";
                          k;
                          seed = (ci * per_client) + r;
                          target = P.Static;
                        })))
          in
          emit
            (Json.Obj
               ((("event", Json.String "bench-serve")
                :: ("concurrency", Json.Int clients)
                :: counts l)
               @ percentiles l));
          Table.add_row table
            [
              string_of_int clients;
              string_of_int l.Harness.requests;
              Printf.sprintf "%.3f" l.Harness.wall_s;
              Printf.sprintf "%.0f" l.Harness.rps;
              Printf.sprintf "%.2f" l.Harness.p50_ms;
              Printf.sprintf "%.2f" l.Harness.p95_ms;
              Printf.sprintf "%.2f" l.Harness.p99_ms;
            ])
        levels);
  Table.print table

(* Seeds at region midpoints so the BFS fronts meet at the block
   boundaries: shard i owns a contiguous slice of the line.  Returns the
   partition and each shard's lowest and highest vertex. *)
let line_blocks g ~n ~shards =
  let seeds =
    List.init shards (fun i -> (i * n / shards) + (n / (2 * shards)))
  in
  let partition = Tdmd_topo.Partition.make ~seeds g ~shards in
  let lo = Array.make shards max_int and hi = Array.make shards (-1) in
  for v = 0 to n - 1 do
    let s = Tdmd_topo.Partition.owner partition v in
    if v < lo.(s) then lo.(s) <- v;
    if v > hi.(s) then hi.(s) <- v
  done;
  (partition, lo, hi)

(* Client [ci] churns inside shard [ci mod shards]'s block: two arrivals
   on short random segments, then a departure of its oldest live flow;
   every 16th arrival straddles the next block boundary, which
   exercises the cross-shard routing to its home shard. *)
let churn_client ~shards ~lo ~hi ci c =
  let s = ci mod shards in
  let rng = Rng.create (7001 + ci) in
  let live = Queue.create () in
  fun r ->
    if r mod 3 = 2 && not (Queue.is_empty live) then
      acked (Client.rpc c (P.Depart (Queue.pop live)))
    else begin
      let id = ((ci + 1) * 1_000_000) + r in
      let path =
        if r mod 16 = 15 && shards > 1 && s < shards - 1 then
          List.init 6 (fun j -> hi.(s) - 2 + j)
        else begin
          let a = lo.(s) + Rng.int rng (hi.(s) - lo.(s) - 1) in
          let b = min hi.(s) (a + 1 + Rng.int rng 5) in
          List.init (b - a + 1) (fun j -> a + j)
        end
      in
      let ok =
        acked (Client.rpc c (P.Arrive { id; rate = 1 + Rng.int rng 8; path }))
      in
      if ok then Queue.push id live;
      ok
    end

(* Per-shard queue/batch counters, over the wire like any client would
   read them ([stats] carries a ["shards"] list when the engine is
   sharded). *)
let shard_stats addr =
  match Client.connect_retry addr with
  | Error _ -> []
  | Ok c -> (
    let stats = Client.rpc c P.Stats in
    Client.close c;
    match stats with
    | Ok j -> (
      match Json.member "shards" j with Some (Json.List l) -> l | _ -> [])
    | Error _ -> [])

(* The largest value of a numeric per-shard field, if any shard has it. *)
let shard_max per_shard field =
  match
    List.filter_map
      (fun o ->
        match Json.member field o with
        | Some (Json.Float f) -> Some f
        | Some (Json.Int i) -> Some (float_of_int i)
        | _ -> None)
      per_shard
  with
  | [] -> None
  | vs -> Some (List.fold_left Float.max neg_infinity vs)

let shard_sweep emit =
  print_endline "\n== serve bench: sharded churn, arrive/depart ==\n";
  let clients = if Harness.quick then 4 else 8 in
  let per_client = if Harness.quick then 30 else 150 in
  let n = 256 in
  let base_inst = Harness.line_instance n in
  let table =
    Table.create
      [ "shards"; "requests"; "errors"; "wall (s)"; "req/s"; "speedup";
        "p50 (ms)"; "p99 (ms)"; "batch avg"; "queue peak" ]
  in
  let base_rps = ref nan in
  List.iter
    (fun shards ->
      let dir = Harness.fresh_path "tdmd-bench-shard" in
      let partition, lo, hi =
        line_blocks base_inst.Tdmd.Instance.graph ~n ~shards
      in
      let config =
        {
          Tdmd_server.Session.Config.default with
          Tdmd_server.Session.Config.durability =
            Some
              (Tdmd_server.Session.durability ~fsync:Tdmd_server.Journal.Always
                 dir);
        }
      in
      let engine =
        Tdmd_server.Engine.create ~config ~shards ~partition
          (Tdmd_server.Engine.General base_inst)
      in
      let l, per_shard =
        Harness.with_server ~domains:clients engine (fun addr ->
            let l =
              Harness.closed_loop addr ~clients ~per_client
                (churn_client ~shards ~lo ~hi)
            in
            (l, shard_stats addr))
      in
      Tdmd_server.Engine.close engine;
      Harness.rm_rf dir;
      if shards = 1 then base_rps := l.Harness.rps;
      let speedup = l.Harness.rps /. !base_rps in
      emit
        (Json.Obj
           ((("event", Json.String "bench-serve-shards")
            :: ("shards", Json.Int shards)
            :: ("clients", Json.Int clients)
            :: counts l)
           @ (("speedup_vs_one_shard", Json.Float speedup) :: percentiles l)
           @ [ ("per_shard", Json.List per_shard) ]));
      let cell fmt field =
        Option.fold ~none:"-" ~some:(Printf.sprintf fmt)
          (shard_max per_shard field)
      in
      Table.add_row table
        [
          string_of_int shards;
          string_of_int l.Harness.requests;
          string_of_int l.Harness.errors;
          Printf.sprintf "%.3f" l.Harness.wall_s;
          Printf.sprintf "%.0f" l.Harness.rps;
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.2f" l.Harness.p50_ms;
          Printf.sprintf "%.2f" l.Harness.p99_ms;
          cell "%.1f" "fsync_batch_avg";
          cell "%.0f" "queue_peak";
        ])
    shard_levels;
  Table.print table

let run () =
  let path, () =
    Harness.with_records "serve" (fun emit ->
        solve_sweep emit;
        shard_sweep emit)
  in
  Printf.printf "\nwrote %s (%d concurrency levels, %d shard levels)\n" path
    (List.length levels) (List.length shard_levels)
