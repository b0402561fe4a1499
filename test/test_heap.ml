open Tdmd_heap

let icmp = (compare : int -> int -> int)

let test_binary_heap_sorts () =
  let h = Binary_heap.of_list ~cmp:icmp [ 5; 3; 8; 1; 9; 2; 7 ] in
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 5; 7; 8; 9 ]
    (Binary_heap.to_sorted_list h)

let test_binary_heap_push_pop () =
  let h = Binary_heap.create ~cmp:icmp () in
  Alcotest.(check bool) "empty" true (Binary_heap.is_empty h);
  Alcotest.(check (option int)) "peek empty" None (Binary_heap.peek h);
  Binary_heap.push h 4;
  Binary_heap.push h 2;
  Binary_heap.push h 6;
  Alcotest.(check (option int)) "peek min" (Some 2) (Binary_heap.peek h);
  Alcotest.(check int) "length" 3 (Binary_heap.length h);
  Alcotest.(check (option int)) "pop" (Some 2) (Binary_heap.pop h);
  Alcotest.(check (option int)) "pop" (Some 4) (Binary_heap.pop h);
  Binary_heap.push h 1;
  Alcotest.(check (option int)) "pop after interleave" (Some 1) (Binary_heap.pop h);
  Alcotest.(check (option int)) "pop last" (Some 6) (Binary_heap.pop h);
  Alcotest.(check (option int)) "pop empty" None (Binary_heap.pop h)

let test_binary_heap_duplicates () =
  let h = Binary_heap.of_list ~cmp:icmp [ 3; 3; 3; 1; 1 ] in
  Alcotest.(check (list int)) "dups kept" [ 1; 1; 3; 3; 3 ]
    (Binary_heap.to_sorted_list h)

let test_indexed_heap_basic () =
  let h = Indexed_heap.create 10 in
  Indexed_heap.push h 3 5.0;
  Indexed_heap.push h 7 2.0;
  Indexed_heap.push h 1 9.0;
  Alcotest.(check bool) "mem" true (Indexed_heap.mem h 7);
  Alcotest.(check bool) "not mem" false (Indexed_heap.mem h 2);
  Alcotest.(check (option (pair int (float 0.0)))) "peek" (Some (7, 2.0))
    (Indexed_heap.peek h);
  Indexed_heap.decrease h 1 1.0;
  Alcotest.(check (option (pair int (float 0.0)))) "after decrease" (Some (1, 1.0))
    (Indexed_heap.peek h);
  Indexed_heap.remove h 1;
  Alcotest.(check (option (pair int (float 0.0)))) "after remove" (Some (7, 2.0))
    (Indexed_heap.peek h);
  Alcotest.(check int) "length" 2 (Indexed_heap.length h)

let test_indexed_heap_update () =
  let h = Indexed_heap.create 5 in
  Indexed_heap.update h 0 3.0;
  Indexed_heap.update h 1 1.0;
  Indexed_heap.update h 0 0.5;
  Alcotest.(check (option (pair int (float 0.0)))) "update down" (Some (0, 0.5))
    (Indexed_heap.peek h);
  Indexed_heap.update h 0 5.0;
  Alcotest.(check (option (pair int (float 0.0)))) "update up" (Some (1, 1.0))
    (Indexed_heap.peek h)

let test_indexed_heap_rejects () =
  let h = Indexed_heap.create 3 in
  Indexed_heap.push h 0 1.0;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Indexed_heap.push: duplicate key") (fun () ->
      Indexed_heap.push h 0 2.0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Indexed_heap.push: key out of range") (fun () ->
      Indexed_heap.push h 9 2.0);
  Alcotest.check_raises "bad decrease"
    (Invalid_argument "Indexed_heap.decrease: larger priority") (fun () ->
      Indexed_heap.decrease h 0 5.0)

(* Property: the binary heap drains any integer multiset in sorted
   order.  (The name predates the pairing heap's removal; it is kept so
   the test's id stays stable.) *)
let prop_heaps_sort =
  QCheck.Test.make ~name:"binary & pairing heaps sort like List.sort" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let expected = List.sort compare xs in
      let bh = Tdmd_heap.Binary_heap.of_list ~cmp:icmp xs in
      Tdmd_heap.Binary_heap.to_sorted_list bh = expected)

(* Property: the binary heap is sound for boxed floats — the former
   [Obj.magic 0] dummy slot relied on every element sharing the dummy's
   runtime representation. *)
let prop_binary_heap_boxed_floats =
  QCheck.Test.make ~name:"binary heap drains boxed floats sorted" ~count:200
    QCheck.(list small_signed_int)
    (fun xs ->
      let xs = List.map (fun i -> float_of_int i *. 0.5) xs in
      let h = Binary_heap.create ~cmp:Float.compare () in
      List.iter (Binary_heap.push h) xs;
      Binary_heap.to_sorted_list h = List.sort Float.compare xs)

(* Same for tuples mixing a float key with payload (HAT's heap shape),
   interleaving pushes and pops. *)
let prop_binary_heap_tuples =
  QCheck.Test.make ~name:"binary heap drains float-keyed tuples sorted"
    ~count:200
    QCheck.(list (pair small_signed_int small_int))
    (fun xs ->
      let xs = List.map (fun (a, b) -> (float_of_int a *. 0.25, b)) xs in
      let h = Binary_heap.create ~capacity:1 ~cmp:compare () in
      (* Interleave: push two, pop one — exercises slot clearing and
         growth from a minimal capacity. *)
      let popped = ref [] in
      List.iter
        (fun x ->
          Binary_heap.push h x;
          if Binary_heap.length h mod 2 = 0 then
            match Binary_heap.pop h with
            | Some y -> popped := y :: !popped
            | None -> ())
        xs;
      let drained = List.rev !popped @ Binary_heap.to_sorted_list h in
      List.sort compare drained = List.sort compare xs)

(* Property: indexed heap pops keys in priority order after a random mix
   of pushes and priority updates. *)
let prop_indexed_heap =
  QCheck.Test.make ~name:"indexed heap respects final priorities" ~count:200
    QCheck.(list (pair (int_bound 19) (map (fun x -> Float.abs x) float)))
    (fun ops ->
      let h = Indexed_heap.create 20 in
      let final = Hashtbl.create 16 in
      List.iter
        (fun (key, prio) ->
          Indexed_heap.update h key prio;
          Hashtbl.replace final key prio)
        ops;
      let rec drain acc =
        match Indexed_heap.pop h with
        | None -> List.rev acc
        | Some (k, p) -> drain ((k, p) :: acc)
      in
      let popped = drain [] in
      let priorities = List.map snd popped in
      let sorted = List.sort compare priorities in
      priorities = sorted
      && List.for_all (fun (k, p) -> Hashtbl.find final k = p) popped
      && List.length popped = Hashtbl.length final)

let suite =
  [
    Alcotest.test_case "binary heap: heapify + drain" `Quick test_binary_heap_sorts;
    Alcotest.test_case "binary heap: push/pop interleave" `Quick
      test_binary_heap_push_pop;
    Alcotest.test_case "binary heap: duplicates" `Quick test_binary_heap_duplicates;
    Alcotest.test_case "indexed heap: basics" `Quick test_indexed_heap_basic;
    Alcotest.test_case "indexed heap: update both ways" `Quick
      test_indexed_heap_update;
    Alcotest.test_case "indexed heap: error cases" `Quick test_indexed_heap_rejects;
    QCheck_alcotest.to_alcotest prop_heaps_sort;
    QCheck_alcotest.to_alcotest prop_binary_heap_boxed_floats;
    QCheck_alcotest.to_alcotest prop_binary_heap_tuples;
    QCheck_alcotest.to_alcotest prop_indexed_heap;
  ]
