(* Harness tests for the perf benchmark: stream determinism, the churn
   population band, the percentile helper, compare verdicts, and the
   metric catalogue against BENCHMARK.json. *)

open Tdmd_perf
module P = Tdmd_server.Protocol

let stream name ~seed ~ops =
  let w = Option.get (Workload.find name) in
  let setup, clients = Workload.setup w ~seed in
  let window = List.concat_map (fun c -> List.init ops (fun _ -> Workload.next w c)) (Array.to_list clients) in
  (setup, window)

let test_same_seed_same_stream () =
  List.iter
    (fun name ->
      let s1, w1 = stream name ~seed:7 ~ops:300 in
      let s2, w2 = stream name ~seed:7 ~ops:300 in
      let s3, w3 = stream name ~seed:8 ~ops:300 in
      Alcotest.(check bool) (name ^ ": same seed, same set-up") true (s1 = s2);
      Alcotest.(check bool) (name ^ ": same seed, same stream") true (w1 = w2);
      Alcotest.(check bool) (name ^ ": set-up ignores the seed") true (s1 = s3);
      Alcotest.(check bool) (name ^ ": another seed, another stream") true (w1 <> w3))
    Workload.names

let test_population_band () =
  let w = Option.get (Workload.find "churn-mixed") in
  let target = match w.Workload.mix with Workload.Churn { target; _ } -> target | Workload.Solves _ -> 0 in
  let _, clients = Workload.setup w ~seed:3 in
  let in_band (c : Workload.client) = abs (c.Workload.n_live - target) <= 1 in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "band after set-up" true (in_band c);
      for _ = 1 to 5000 do
        ignore (Workload.next w c);
        if not (in_band c) then Alcotest.failf "population %d left [%d, %d]" c.Workload.n_live (target - 1) (target + 1)
      done)
    clients

let test_churn_only_own_flows () =
  let w = Option.get (Workload.find "churn-mixed") in
  let setup, clients = Workload.setup w ~seed:5 in
  let owner id = (id / 100_000_000) - 1 in
  let live = Hashtbl.create 4096 in
  let apply cid = function
    | P.Arrive { id; _ } ->
      if Hashtbl.mem live id then Alcotest.failf "flow %d arrives twice" id;
      Hashtbl.replace live id cid
    | P.Depart id ->
      if Hashtbl.find_opt live id <> Some cid then Alcotest.failf "client %d departs a flow it does not own" cid;
      Hashtbl.remove live id
    | _ -> ()
  in
  List.iter (function P.Arrive { id; _ } | P.Depart id as op -> apply (owner id) op | _ -> ()) setup;
  Array.iter (fun (c : Workload.client) -> for _ = 1 to 3000 do apply c.Workload.cid (Workload.next w c) done) clients

let test_percentiles () =
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  let p = Pct.percentile (xs 1000) ~num:99 ~den:100 in
  Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 p.Pct.value;
  Alcotest.(check int) "samples" 1000 p.Pct.samples;
  Alcotest.(check int) "beyond" 10 p.Pct.beyond;
  Alcotest.(check bool) "ten beyond is enough" true (Pct.supported p);
  Alcotest.(check bool) "nine beyond is not" false (Pct.supported (Pct.percentile (xs 999) ~num:99 ~den:100));
  let with_failures = Array.append (xs 98) [| infinity; infinity |] in
  Alcotest.(check (float 0.0)) "failures sit above every latency" infinity
    (Pct.percentile with_failures ~num:99 ~den:100).Pct.value;
  Alcotest.(check (float 0.0)) "p50" 50.0 (Pct.percentile with_failures ~num:50 ~den:100).Pct.value;
  let q1, q2, q3 = Pct.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  Alcotest.(check (list (float 1e-12))) "python quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 1e-12)) "median of even count" 2.5 (Pct.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-12)) "spread" ((8.25 -. 2.75) /. 5.5) (Pct.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let test_host_scaling () =
  let n = Host.nominal_s in
  Alcotest.(check (float 1e-12)) "identity at nominal speed" 3.0 (Host.at_nominal ~probe:n 3.0);
  Alcotest.(check (float 1e-12)) "a host twice as slow halves a time" 1.5 (Host.at_nominal ~probe:(2.0 *. n) 3.0);
  Alcotest.(check (float 1e-12)) "and doubles a rate" 6.0 (Host.rate_at_nominal ~probe:(2.0 *. n) 3.0)

let metric name = Option.get (Spec.find name)
let seeds vs = List.mapi (fun i v -> (i + 1, v)) vs

let test_compare_verdicts () =
  let v name ?bound o n = Compare.verdict_to_string (Compare.judge (metric name) ~bound (seeds o) (seeds n)) in
  let base = [ 100.0; 101.0; 99.0; 100.5; 99.5 ] in
  let scale k = List.map (fun x -> x *. k) base in
  let check msg want got = Alcotest.(check string) msg want got in
  check "noise is unchanged" "unchanged" (v "p50_ms" ~bound:0.05 base (scale 1.01));
  check "slower beyond the bound" "worse" (v "p50_ms" ~bound:0.05 base (scale 1.2));
  check "faster on every pair" "better" (v "p50_ms" ~bound:0.05 base (scale 0.7));
  check "higher is better for throughput" "better" (v "throughput_ops_s" ~bound:0.05 base (scale 1.3));
  check "lower throughput is worse" "worse" (v "throughput_ops_s" ~bound:0.05 base (scale 0.8));
  let wide = [ 50.0; 100.0; 150.0; 80.0; 120.0 ] in
  check "spread wider than the bound" "unresolved" (v "p99_ms" ~bound:0.05 wide [ 90.0; 140.0; 60.0; 100.0; 110.0 ]);
  check "wide but every new run better" "better" (v "p99_ms" ~bound:0.05 wide [ 10.0; 12.0; 11.0; 9.0; 13.0 ]);
  check "exact counter equal" "unchanged" (v "solvers.oracle_calls" [ 6275.0; 6275.0 ] [ 6275.0 ]);
  check "exact counter moved" "CHANGED" (v "solvers.oracle_calls" [ 6275.0; 6275.0 ] [ 6276.0; 6275.0 ]);
  check "layer metric without a bound" "better" (v "engine.arrive_us" base (scale 0.5))

let benchmark_json = "../../BENCHMARK.json"

let test_catalogue_matches_benchmark_json () =
  match Spec.load benchmark_json with
  | Error msg -> Alcotest.fail msg
  | Ok decl ->
    let check_kind kind (emitted : Spec.metric list) (declared : Spec.declared list) =
      List.iter
        (fun (m : Spec.metric) ->
          match List.find_opt (fun (d : Spec.declared) -> d.Spec.d_name = m.Spec.name) declared with
          | None -> Alcotest.failf "%s metric %s is emitted but not declared" kind m.Spec.name
          | Some d ->
            Alcotest.(check string) (m.Spec.name ^ " unit") m.Spec.unit d.Spec.d_unit;
            Alcotest.(check string) (m.Spec.name ^ " better") (Spec.better_to_string m.Spec.better) d.Spec.d_better)
        emitted;
      List.iter
        (fun (d : Spec.declared) ->
          if not (List.exists (fun (m : Spec.metric) -> m.Spec.name = d.Spec.d_name) emitted) then
            Alcotest.failf "%s metric %s is declared but never emitted" kind d.Spec.d_name)
        declared
    in
    check_kind "end-to-end" Spec.end_to_end decl.Spec.e2e;
    check_kind "per-layer" Spec.per_layer decl.Spec.layer;
    Alcotest.(check (list string)) "workloads" Workload.names decl.Spec.workloads;
    List.iter
      (fun (d : Spec.declared) ->
        match d.Spec.d_bound with
        | Some b when b > 0.0 && b <= 0.25 -> ()
        | _ -> Alcotest.failf "%s needs a bound in (0, 0.25]" d.Spec.d_name)
      decl.Spec.e2e

let test_report_refuses_unknown_metric () =
  let r = Report.create ~workload:"solve-large" ~seed:1 ~quick:true ~trace:false ~window_s:1.0 in
  Alcotest.check_raises "unknown name" (Invalid_argument "Report.add: metric not in the catalogue: p42_ms")
    (fun () -> Report.add r "p42_ms" 1.0)

let () =
  Alcotest.run "perf"
    [
      ( "harness",
        [
          Alcotest.test_case "same seed, same op stream" `Quick test_same_seed_same_stream;
          Alcotest.test_case "churn population stays in its band" `Quick test_population_band;
          Alcotest.test_case "churn clients depart only their own flows" `Quick test_churn_only_own_flows;
          Alcotest.test_case "percentile and sample-count helper" `Quick test_percentiles;
          Alcotest.test_case "host speed scaling" `Quick test_host_scaling;
          Alcotest.test_case "compare verdicts" `Quick test_compare_verdicts;
          Alcotest.test_case "catalogue matches BENCHMARK.json both ways" `Quick test_catalogue_matches_benchmark_json;
          Alcotest.test_case "report refuses undeclared metrics" `Quick test_report_refuses_unknown_metric;
        ] );
    ]
