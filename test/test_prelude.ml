open Tdmd_prelude

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  (* The split stream must differ from the parent's continuation. *)
  let xs = List.init 16 (fun _ -> Rng.bits64 a) in
  let ys = List.init 16 (fun _ -> Rng.bits64 c) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "int in [0,10)" true (x >= 0 && x < 10);
    let y = Rng.int_in rng 5 9 in
    Alcotest.(check bool) "int_in in [5,9]" true (y >= 5 && y <= 9);
    let f = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in [0,2.5)" true (f >= 0.0 && f < 2.5)
  done

let test_rng_sample_without_replacement () =
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    let s = Rng.sample_without_replacement rng 20 8 in
    Alcotest.(check int) "eight drawn" 8 (List.length s);
    Alcotest.(check int) "distinct" 8 (List.length (List.sort_uniq compare s));
    List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 20)) s
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_pareto_support () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.pareto rng ~alpha:1.5 ~x_min:4.0 in
    Alcotest.(check bool) "x >= x_min" true (x >= 4.0)
  done

let test_welford_matches_naive () =
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  let s = Stats.summarize xs in
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Stats.mean;
  (* Sample stddev of this classic dataset: sqrt(32/7). *)
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (32.0 /. 7.0)) s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Stats.max;
  Alcotest.(check int) "n" 8 s.Stats.n

let test_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile a 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile a 1.0);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.percentile a 0.5)

let test_table_render () =
  let t = Table.create [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "header present" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv" "a,bb\n1,2\n333,\n" csv

let test_table_csv_quoting () =
  let t = Table.create [ "x" ] in
  Table.add_row t [ "a,b" ];
  Table.add_row t [ "say \"hi\"" ];
  Alcotest.(check string) "quoted" "x\n\"a,b\"\n\"say \"\"hi\"\"\"\n" (Table.to_csv t)

let test_listx () =
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Listx.range 2 4);
  Alcotest.(check (list int)) "empty range" [] (Listx.range 3 2);
  Alcotest.(check int) "frange count" 10
    (List.length (Listx.frange ~lo:0.0 ~hi:0.9 ~step:0.1));
  Alcotest.(check int) "max_by" 9 (Listx.max_by float_of_int [ 3; 9; 1 ]);
  Alcotest.(check int) "min_by" 1 (Listx.min_by float_of_int [ 3; 9; 1 ]);
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list (pair int (list int)))) "group_by"
    [ (0, [ 2; 4 ]); (1, [ 1; 3 ]) ]
    (Listx.group_by (fun x -> x mod 2) [ 1; 2; 3; 4 ])

let test_histogram () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 () in
  List.iter (Histogram.add h) [ 0.5; 1.0; 2.5; 9.9; 15.0; -3.0 ];
  Alcotest.(check int) "count" 6 (Histogram.count h);
  (* 15.0 clamps into the last bin, -3.0 into the first. *)
  Alcotest.(check (array int)) "bins" [| 3; 1; 0; 0; 2 |] (Histogram.bin_counts h);
  let edges = Histogram.bin_edges h in
  Alcotest.(check (float 1e-9)) "first lower edge" 0.0 (fst edges.(0));
  Alcotest.(check (float 1e-9)) "last upper edge" 10.0 (snd edges.(4));
  Alcotest.(check bool) "renders" true (String.length (Histogram.render h) > 0);
  Alcotest.check_raises "bad bins"
    (Invalid_argument "Histogram.create: bins must be positive") (fun () ->
      ignore (Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0 ()))

let test_log_histogram () =
  let h = Histogram.create ~scale:Histogram.Log ~lo:1.0 ~hi:1000.0 ~bins:3 () in
  let edges = Histogram.bin_edges h in
  (* Geometric bins: decade boundaries. *)
  Alcotest.(check (float 1e-9)) "first upper edge" 10.0 (snd edges.(0));
  Alcotest.(check (float 1e-9)) "second upper edge" 100.0 (snd edges.(1));
  List.iter (Histogram.add h) [ 2.0; 5.0; 50.0; 500.0; 0.1; 5000.0 ];
  (* Out-of-range samples clamp like in the linear case. *)
  Alcotest.(check (array int)) "bins" [| 3; 1; 2 |] (Histogram.bin_counts h);
  Alcotest.check_raises "log scale needs lo > 0"
    (Invalid_argument "Histogram.create: log scale needs lo > 0") (fun () ->
      ignore (Histogram.create ~scale:Histogram.Log ~lo:0.0 ~hi:1.0 ~bins:4 ()))

let test_histogram_percentile () =
  let h = Histogram.create ~lo:0.0 ~hi:100.0 ~bins:100 () in
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Histogram.percentile h 0.5));
  for i = 1 to 100 do
    Histogram.add h (float_of_int i -. 0.5)
  done;
  (* One sample per unit bin, so any percentile is exact to a bin
     width. *)
  Alcotest.(check (float 1.0)) "median" 50.0 (Histogram.percentile h 0.5);
  Alcotest.(check (float 1.0)) "p95" 95.0 (Histogram.percentile h 0.95);
  Alcotest.(check (float 1.0)) "p0 hits the low edge" 0.0
    (Histogram.percentile h 0.0);
  Alcotest.(check (float 1.0)) "p100 hits the high edge" 100.0
    (Histogram.percentile h 1.0)

let test_pool () =
  (* Happy path: every accepted job runs exactly once before shutdown
     returns. *)
  let pool = Parallel.Pool.create ~domains:2 ~capacity:64 () in
  let ran = Atomic.make 0 in
  let accepted = ref 0 in
  for _ = 1 to 20 do
    if Parallel.Pool.submit pool (fun () -> Atomic.incr ran) then incr accepted
  done;
  Parallel.Pool.shutdown pool;
  Alcotest.(check int) "all accepted jobs ran" !accepted (Atomic.get ran);
  Alcotest.(check bool) "submit after shutdown refused" false
    (Parallel.Pool.submit pool (fun () -> ()));
  (* Backpressure: one worker pinned, capacity-1 queue filled, the next
     submit must bounce instead of blocking. *)
  let pool = Parallel.Pool.create ~domains:1 ~capacity:1 () in
  let release = Atomic.make false in
  let pinned =
    Parallel.Pool.submit pool (fun () ->
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done)
  in
  Alcotest.(check bool) "blocker accepted" true pinned;
  (* Wait until the worker has dequeued the blocker so the queue state
     is deterministic. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Parallel.Pool.queue_depth pool > 0 && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check bool) "filler accepted" true
    (Parallel.Pool.submit pool (fun () -> ()));
  Alcotest.(check bool) "full queue rejects" false
    (Parallel.Pool.submit pool (fun () -> ()));
  Alcotest.(check int) "rejected job not queued" 1
    (Parallel.Pool.queue_depth pool);
  Atomic.set release true;
  Parallel.Pool.shutdown pool;
  Alcotest.(check int) "drained" 0 (Parallel.Pool.queue_depth pool)

let test_parallel_map () =
  let xs = List.init 100 (fun i -> i) in
  let expected = List.map (fun x -> x * x) xs in
  Alcotest.(check (list int)) "sequential" expected (Parallel.map (fun x -> x * x) xs);
  Alcotest.(check (list int)) "2 domains" expected
    (Parallel.map ~domains:2 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "4 domains keeps order" expected
    (Parallel.map ~domains:4 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "more domains than tasks" [ 1; 4 ]
    (Parallel.map ~domains:8 (fun x -> x * x) [ 1; 2 ]);
  Alcotest.(check (list int)) "empty" [] (Parallel.map ~domains:4 (fun x -> x) []);
  Alcotest.(check bool) "recommended >= 1" true (Parallel.recommended_domains () >= 1)

let test_parallel_exceptions () =
  Alcotest.check_raises "worker exception propagates" (Failure "boom") (fun () ->
      ignore
        (Parallel.map ~domains:3
           (fun x -> if x = 7 then failwith "boom" else x)
           (List.init 20 (fun i -> i))))

(* Backoff edge cases: previously only exercised indirectly through
   Client.rpc_retry. *)

let test_backoff_invalid_policy () =
  Alcotest.check_raises "zero base" (Invalid_argument "Backoff.policy: base must be > 0")
    (fun () -> ignore (Backoff.policy ~base:0.0 ()));
  Alcotest.check_raises "negative base"
    (Invalid_argument "Backoff.policy: base must be > 0") (fun () ->
      ignore (Backoff.policy ~base:(-0.5) ()));
  Alcotest.check_raises "cap below base"
    (Invalid_argument "Backoff.policy: cap must be >= base") (fun () ->
      ignore (Backoff.policy ~base:0.2 ~cap:0.1 ()));
  Alcotest.check_raises "negative attempts"
    (Invalid_argument "Backoff.policy: max_attempts < 0") (fun () ->
      ignore (Backoff.policy ~max_attempts:(-1) ()));
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Backoff.policy: budget < 0") (fun () ->
      ignore (Backoff.policy ~budget:(-1.0) ()))

let drain b =
  let rec go acc =
    match Backoff.next b with None -> List.rev acc | Some d -> go (d :: acc)
  in
  go []

let test_backoff_cap_saturation () =
  (* A tiny cap pins every delay into [base, cap] no matter how many
     attempts have inflated [3 * prev]. *)
  let p = Backoff.policy ~base:0.01 ~cap:0.02 ~max_attempts:50 ~budget:0.0 () in
  let delays = drain (Backoff.start ~seed:7 p) in
  Alcotest.(check int) "max_attempts bounds the schedule" 50 (List.length delays);
  List.iter
    (fun d ->
      Alcotest.(check bool) "delay >= base" true (d >= 0.01 -. 1e-12);
      Alcotest.(check bool) "delay <= cap" true (d <= 0.02 +. 1e-12))
    delays

let test_backoff_budget_clip () =
  (* The final delay is clipped so cumulative sleep lands exactly on the
     budget, never past it. *)
  let p = Backoff.policy ~base:0.4 ~cap:1.0 ~max_attempts:0 ~budget:1.0 () in
  let b = Backoff.start ~seed:3 p in
  let delays = drain b in
  let total = List.fold_left ( +. ) 0.0 delays in
  Alcotest.(check (float 1e-9)) "sums exactly to the budget" 1.0 total;
  Alcotest.(check (float 1e-9)) "elapsed agrees" 1.0 (Backoff.elapsed b);
  Alcotest.(check int) "attempts counted" (List.length delays) (Backoff.attempts b)

let test_backoff_determinism () =
  let p = Backoff.policy ~base:0.05 ~cap:1.0 ~max_attempts:20 ~budget:0.0 () in
  let a = drain (Backoff.start ~seed:42 p) in
  let b = drain (Backoff.start ~seed:42 p) in
  let c = drain (Backoff.start ~seed:43 p) in
  Alcotest.(check (list (float 0.0))) "same seed, same schedule" a b;
  Alcotest.(check bool) "different seed, different schedule" true (a <> c);
  (* First delay is always exactly [base]: no jitter before failure #2. *)
  Alcotest.(check (float 0.0)) "first delay is base" 0.05 (List.hd a)

let suite =
  [
    Alcotest.test_case "parallel: map" `Quick test_parallel_map;
    Alcotest.test_case "parallel: exception propagation" `Quick
      test_parallel_exceptions;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram: log bins" `Quick test_log_histogram;
    Alcotest.test_case "histogram: percentiles" `Quick test_histogram_percentile;
    Alcotest.test_case "parallel: worker pool" `Quick test_pool;
    Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: sampling w/o replacement" `Quick
      test_rng_sample_without_replacement;
    Alcotest.test_case "rng: shuffle is a permutation" `Quick
      test_rng_shuffle_permutation;
    Alcotest.test_case "rng: pareto support" `Quick test_pareto_support;
    Alcotest.test_case "stats: welford summary" `Quick test_welford_matches_naive;
    Alcotest.test_case "stats: percentile" `Quick test_percentile;
    Alcotest.test_case "table: render + csv" `Quick test_table_render;
    Alcotest.test_case "table: csv quoting" `Quick test_table_csv_quoting;
    Alcotest.test_case "listx helpers" `Quick test_listx;
    Alcotest.test_case "backoff: invalid policies" `Quick
      test_backoff_invalid_policy;
    Alcotest.test_case "backoff: cap saturation" `Quick
      test_backoff_cap_saturation;
    Alcotest.test_case "backoff: budget clip" `Quick test_backoff_budget_clip;
    Alcotest.test_case "backoff: determinism" `Quick test_backoff_determinism;
  ]
