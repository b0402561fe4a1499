(* Tdmd_obs: telemetry spans/counters, JSON round-trips and the
   JSON-lines sink. *)

module Tel = Tdmd_obs.Telemetry
module Json = Tdmd_obs.Json
module Sink = Tdmd_obs.Sink

let test_counters () =
  let tel = Tel.create () in
  Alcotest.(check int) "absent counter is 0" 0 (Tel.get_count tel "x");
  Tel.count tel "x" 3;
  Tel.count tel "x" 4;
  Alcotest.(check int) "counters accumulate" 7 (Tel.get_count tel "x");
  Tel.gauge tel "g" 1.5;
  Tel.gauge tel "g" 2.5;
  Alcotest.(check bool) "gauge last write wins" true
    (Tel.find tel "g" = Some (Tel.Float 2.5));
  Alcotest.(check bool) "metrics keep first-write order" true
    (List.map fst (Tel.metrics tel) = [ "x"; "g" ]);
  Alcotest.check_raises "count on a gauge rejected"
    (Invalid_argument "Telemetry.count: g is not a counter") (fun () ->
      Tel.count tel "g" 1)

let test_span_nesting () =
  let tel = Tel.create () in
  Tel.with_span tel "outer" (fun () ->
      Tel.with_span tel "first" (fun () -> Tel.count tel "work" 1);
      Tel.with_span tel "second" ignore);
  Tel.with_span tel "later" ignore;
  match Tel.spans tel with
  | [ outer; later ] ->
    Alcotest.(check string) "root label" "outer" outer.Tel.label;
    Alcotest.(check string) "second root" "later" later.Tel.label;
    Alcotest.(check (list string)) "children in start order" [ "first"; "second" ]
      (List.map (fun s -> s.Tel.label) outer.Tel.children);
    let child_total =
      List.fold_left
        (fun acc s -> Int64.add acc s.Tel.dur_ns)
        0L outer.Tel.children
    in
    Alcotest.(check bool) "parent spans its children" true
      (outer.Tel.dur_ns >= child_total)
  | spans -> Alcotest.failf "expected 2 root spans, got %d" (List.length spans)

let test_span_closes_on_raise () =
  let tel = Tel.create () in
  (try Tel.with_span tel "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span closed despite raise" 1 (List.length (Tel.spans tel));
  Alcotest.check_raises "close without open rejected"
    (Invalid_argument "Telemetry.span_close: no open span") (fun () ->
      Tel.span_close tel)

let test_merge () =
  let a = Tel.create () and b = Tel.create () in
  Tel.count a "calls" 2;
  Tel.gauge a "theta" 4.0;
  Tel.with_span a "a-root" ignore;
  Tel.count b "calls" 5;
  Tel.count b "extra" 1;
  Tel.gauge b "theta" 8.0;
  Tel.with_span b "b-root" ignore;
  Tel.merge ~into:a b;
  Alcotest.(check int) "counters add" 7 (Tel.get_count a "calls");
  Alcotest.(check int) "new counters appear" 1 (Tel.get_count a "extra");
  Alcotest.(check bool) "gauges overwrite" true
    (Tel.find a "theta" = Some (Tel.Float 8.0));
  Alcotest.(check (list string)) "spans append" [ "a-root"; "b-root" ]
    (List.map (fun s -> s.Tel.label) (Tel.spans a))

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("i", Json.Int 42);
        ("f", Json.Float 1.5);
        ("whole", Json.Float 3.0);
        ("s", Json.String "quote \" slash \\ newline \n");
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float (-2.5) ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok v' ->
    Alcotest.(check bool) "emit/parse round-trip" true (v = v');
    Alcotest.(check bool) "whole floats stay floats" true
      (Json.member "whole" v' = Some (Json.Float 3.0))

(* print ∘ parse = id over random JSON trees.  NaN/infinite floats are
   excluded by construction: they deliberately emit as [null] (JSON has
   no spelling for them), the one documented lossy case. *)
let json_arbitrary =
  let open QCheck.Gen in
  let any_string = string_size ~gen:char (int_bound 12) in
  let finite_float =
    oneof
      [
        oneofl
          [ 0.0; -0.0; 1.0; -1.5; 0.1; 1e-300; 1e300; Float.max_float;
            Float.min_float; 4.0 /. 3.0 ];
        map (fun f -> if Float.is_finite f then f else 0.0) float;
      ]
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) finite_float;
        map (fun s -> Json.String s) any_string;
      ]
  in
  let tree =
    fix
      (fun self n ->
        if n <= 0 then scalar
        else
          frequency
            [
              (3, scalar);
              (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
              ( 1,
                map
                  (fun l -> Json.Obj l)
                  (list_size (int_bound 4)
                     (pair any_string (self (n / 2)))) );
            ])
      8
  in
  QCheck.make ~print:Json.to_string tree

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: print ∘ parse = id" ~count:500 json_arbitrary
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

let test_json_escapes () =
  (* Control characters escape as \uXXXX and survive the round trip. *)
  let controls = String.init 0x20 Char.chr in
  Alcotest.(check bool) "control chars round-trip" true
    (Json.of_string (Json.to_string (Json.String controls))
    = Ok (Json.String controls));
  Alcotest.(check string) "low codes use \\u form" {|"\u0001"|}
    (Json.to_string (Json.String "\x01"));
  (* \uXXXX decodes to UTF-8, including astral plane surrogate pairs. *)
  Alcotest.(check bool) "\\u0041 is A" true
    (Json.of_string {|"\u0041\u00e9"|} = Ok (Json.String "A\xc3\xa9"));
  Alcotest.(check bool) "surrogate pair decodes" true
    (Json.of_string {|"\ud83d\ude00"|} = Ok (Json.String "\xf0\x9f\x98\x80"));
  (* Number edge cases: exponents are floats, bare digits are ints. *)
  Alcotest.(check bool) "1e3 is a float" true
    (Json.of_string "1e3" = Ok (Json.Float 1000.0));
  Alcotest.(check bool) "-12 is an int" true
    (Json.of_string "-12" = Ok (Json.Int (-12)));
  Alcotest.(check bool) "max_int round-trips" true
    (Json.of_string (Json.to_string (Json.Int max_int)) = Ok (Json.Int max_int));
  (* The documented lossy case: non-finite floats emit as null. *)
  Alcotest.(check string) "infinity emits null" "null"
    (Json.to_string (Json.Float infinity));
  Alcotest.(check string) "nan emits null" "null"
    (Json.to_string (Json.Float Float.nan))

let test_sink_jsonl () =
  let tel = Tel.create () in
  Tel.count tel "oracle_calls" 9;
  Tel.with_span tel "solve" (fun () -> Tel.with_span tel "inner" ignore);
  let buf = Buffer.create 256 in
  let sink = Sink.of_buffer buf in
  Sink.emit sink (Sink.record ~event:"run" ~extra:[ ("k", Json.Int 3) ] tel);
  Sink.emit sink (Sink.record ~event:"run" tel);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one record per line" 2 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "invalid JSON line %S: %s" line e
      | Ok record ->
        Alcotest.(check bool) "event field" true
          (Json.member "event" record = Some (Json.String "run"));
        let metrics =
          Option.bind (Json.member "telemetry" record) (Json.member "metrics")
        in
        Alcotest.(check bool) "counter survives" true
          (Option.bind metrics (Json.member "oracle_calls") = Some (Json.Int 9));
        let spans =
          Option.bind (Json.member "telemetry" record) (Json.member "spans")
        in
        (match spans with
        | Some (Json.List [ root ]) ->
          Alcotest.(check bool) "span label" true
            (Json.member "label" root = Some (Json.String "solve"));
          (match Json.member "children" root with
          | Some (Json.List [ _ ]) -> ()
          | _ -> Alcotest.fail "expected one child span")
        | _ -> Alcotest.fail "expected one root span"))
    lines

let test_clock_time () =
  let x, dt = Tdmd_obs.Clock.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0)

let suite =
  [
    Alcotest.test_case "clock: time" `Quick test_clock_time;
    Alcotest.test_case "telemetry: counters and gauges" `Quick test_counters;
    Alcotest.test_case "telemetry: span nesting" `Quick test_span_nesting;
    Alcotest.test_case "telemetry: span closes on raise" `Quick
      test_span_closes_on_raise;
    Alcotest.test_case "telemetry: merge" `Quick test_merge;
    Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "json: escapes and number edges" `Quick test_json_escapes;
    Alcotest.test_case "sink: JSON-lines records" `Quick test_sink_jsonl;
  ]
