(* The metric catalogue: every name the harness can emit, with its unit
   and better-direction.  [Report.add] refuses any other name, and a
   test checks this list against BENCHMARK.json in both directions, so
   the declared benchmark and the emitting code cannot drift apart. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  exact : bool;
      (** deterministic work counter: [compare] demands equality
          instead of applying a bound *)
}

let m ?(exact = false) name unit better = { name; unit; better; exact }

(* Client-observed, measured with tracing off.  Every workload emits
   every one of them, and none can read 0 on a healthy run. *)
let end_to_end =
  [
    m "throughput_ops_s" "ops/s" Higher;
    m "p50_ms" "ms" Lower;
    m "p99_ms" "ms" Lower;
    m "setup_s" "s" Lower;
    m "recover_s" "s" Lower;
    m "server_rss_mb" "MB" Lower;
  ]

(* Emitted by [--trace] runs only.  Replay timings are totals per
   replayed op of the workload's own stream, so a call the workload
   never makes reads 0 and the per-op columns add up (see README). *)
let per_layer =
  [
    (* from the server's [stats] op and the window's replies *)
    m "server.p50_ms" "ms" Lower;
    m "server.p99_ms" "ms" Lower;
    m "server.transport_us" "us/op" Lower;
    m "journal.fsyncs_per_op" "fsyncs/op" Lower;
    m "journal.bytes_per_op" "bytes/op" Lower;
    m "journal.replay_us_per_op" "us/op" Lower;
    m "shard.batch_avg" "ops/batch" Higher;
    m "shard.queue_peak" "count" Lower;
    m "shard.imbalance" "ratio" Lower;
    m "engine.cross_share" "share" Lower;
    m "incremental.feasible_share" "share" Higher;
    m "incremental.moves_per_op" "moves/op" Lower;
    (* from the in-process replays *)
    m "protocol.encode_us" "us/op" Lower;
    m "protocol.decode_us" "us/op" Lower;
    m "protocol.bytes_per_op" "bytes/op" Lower;
    m "protocol.alloc_words" "words/op" Lower;
    m "engine.arrive_us" "us/op" Lower;
    m "engine.depart_us" "us/op" Lower;
    m "engine.rebalance_us" "us/op" Lower;
    m "engine.solve_us" "us/op" Lower;
    m "engine.stats_us" "us/op" Lower;
    m "engine.alloc_words" "words/op" Lower;
    m "journal.self_us" "us/op" Lower;
    m "journal.append_us" "us/op" Lower;
    m "router.route_ns" "ns/op" Lower;
    m "incremental.arrive_us" "us/op" Lower;
    m "incremental.depart_us" "us/op" Lower;
    m "incremental.rebalance_us" "us/op" Lower;
    m "incremental.bandwidth_us" "us/op" Lower;
    m "incremental.alloc_words" "words/op" Lower;
    m "solvers.gtp_us" "us/op" Lower;
    m "solvers.celf_us" "us/op" Lower;
    m "solvers.gtp-ls_us" "us/op" Lower;
    m ~exact:true "solvers.oracle_calls" "count" Lower;
    m ~exact:true "solvers.delta_evals" "count" Lower;
    m "inc_oracle.create_us" "us" Lower;
    m "inc_oracle.marginal_ns" "ns" Lower;
    m "trace.overhead_share" "share" Lower;
    m "host.kernel_ms" "ms" Lower;
  ]

let all = end_to_end @ per_layer
let find name = List.find_opt (fun x -> x.name = name) all
let better_to_string = function Higher -> "higher" | Lower -> "lower"

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

module Json = Tdmd_obs.Json

type declared = {
  d_name : string;
  d_unit : string;
  d_better : string;
  d_bound : float option;  (** end-to-end metrics only *)
}

type file = { workloads : string list; e2e : declared list; layer : declared list }

let ( let* ) = Result.bind

let str name j =
  match Json.member name j with
  | Some (Json.String s) -> Ok s
  | _ -> Error (Printf.sprintf "BENCHMARK.json: missing string %S" name)

let list name j =
  match Json.member name j with
  | Some (Json.List l) -> Ok l
  | _ -> Error (Printf.sprintf "BENCHMARK.json: missing list %S" name)

let all_ok f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let declared j =
  let* d_name = str "name" j in
  let* d_unit = str "unit" j in
  let* d_better = str "better" j in
  let d_bound = Option.bind (Json.member "bound" j) Json.to_float in
  Ok { d_name; d_unit; d_better; d_bound }

let load path =
  let* text = Fsutil.read_file path in
  let* j = Json.of_string text in
  let* ws = list "workloads" j in
  let* workloads = all_ok (str "name") ws in
  let* e2e = Result.bind (list "end_to_end" j) (all_ok declared) in
  let* layer = Result.bind (list "per_layer" j) (all_ok declared) in
  Ok { workloads; e2e; layer }
