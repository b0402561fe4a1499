module Flow = Tdmd_flow.Flow
module G = Tdmd_graph.Digraph

let total_rate flows = List.fold_left (fun acc f -> acc + f.Flow.rate) 0 flows

let test_make_and_accessors () =
  let f = Flow.make ~id:7 ~rate:3 ~path:[ 4; 2; 0 ] in
  Alcotest.(check int) "src" 4 (Flow.src f);
  Alcotest.(check int) "hops" 2 (Flow.hop_count f)

let test_make_rejects () =
  Alcotest.check_raises "empty path" (Invalid_argument "Flow.make: empty path")
    (fun () -> ignore (Flow.make ~id:0 ~rate:1 ~path:[]));
  Alcotest.check_raises "zero rate" (Invalid_argument "Flow.make: rate must be positive")
    (fun () -> ignore (Flow.make ~id:0 ~rate:0 ~path:[ 1 ]));
  Alcotest.check_raises "loop in path"
    (Invalid_argument "Flow.make: repeated vertex in path") (fun () ->
      ignore (Flow.make ~id:0 ~rate:1 ~path:[ 1; 2; 1 ]))

let test_validate () =
  let g = G.create 3 in
  G.add_edge g 0 1;
  let ok = Flow.make ~id:0 ~rate:1 ~path:[ 0; 1 ] in
  let bad = Flow.make ~id:1 ~rate:1 ~path:[ 1; 2 ] in
  Alcotest.(check bool) "valid" true (Flow.validate g ok = Ok ());
  (match Flow.validate g bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected missing-arc error")

let test_merge_same_source () =
  let f path rate id = Flow.make ~id ~rate ~path in
  let flows = [ f [ 1; 0 ] 2 0; f [ 2; 0 ] 3 1; f [ 1; 0 ] 5 2 ] in
  let merged = Flow.merge_same_source flows in
  Alcotest.(check int) "two groups" 2 (List.length merged);
  (match merged with
  | [ a; b ] ->
    Alcotest.(check int) "first keeps order" 1 (Flow.src a);
    Alcotest.(check int) "rates summed" 7 a.Flow.rate;
    Alcotest.(check int) "other untouched" 3 b.Flow.rate;
    Alcotest.(check int) "ids renumbered" 0 a.Flow.id;
    Alcotest.(check int) "ids renumbered" 1 b.Flow.id
  | _ -> Alcotest.fail "expected two flows");
  Alcotest.(check int) "total rate preserved" 10 (total_rate merged)

let test_volume () =
  let flows =
    [ Flow.make ~id:0 ~rate:4 ~path:[ 0; 1; 2 ]; Flow.make ~id:1 ~rate:2 ~path:[ 3; 2 ] ]
  in
  Alcotest.(check int) "total rate" 6 (total_rate flows);
  Alcotest.(check int) "volume = sum r*|p|" 10 (Flow.total_path_volume flows)

let test_single_vertex_path () =
  (* Degenerate src = dst flow: legal (hop count 0, zero volume); used
     by the set-cover reduction. *)
  let f = Flow.make ~id:0 ~rate:2 ~path:[ 5 ] in
  Alcotest.(check int) "hops" 0 (Flow.hop_count f);
  Alcotest.(check int) "volume" 0 (Flow.total_path_volume [ f ])

let prop_merge_preserves_volume =
  QCheck.Test.make ~name:"merge_same_source preserves rate and volume" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_range 1 9) (int_range 0 4)))
    (fun specs ->
      let flows =
        List.mapi
          (fun id (rate, src) ->
            (* Five possible sources, all flowing down a fixed chain. *)
            let path = List.init (src + 2) (fun i -> src + i) in
            Flow.make ~id ~rate ~path)
          specs
      in
      let merged = Flow.merge_same_source flows in
      total_rate merged = total_rate flows
      && Flow.total_path_volume merged = Flow.total_path_volume flows
      && List.length (List.sort_uniq compare (List.map (fun f -> f.Flow.id) merged))
         = List.length merged)

let suite =
  [
    Alcotest.test_case "flow: accessors" `Quick test_make_and_accessors;
    Alcotest.test_case "flow: rejects" `Quick test_make_rejects;
    Alcotest.test_case "flow: path validation" `Quick test_validate;
    Alcotest.test_case "flow: merge same source" `Quick test_merge_same_source;
    Alcotest.test_case "flow: totals" `Quick test_volume;
    Alcotest.test_case "flow: single-vertex path" `Quick test_single_vertex_path;
    QCheck_alcotest.to_alcotest prop_merge_preserves_volume;
  ]
