open Tdmd_heap

let icmp = (compare : int -> int -> int)

let of_list ~cmp xs =
  let h = Binary_heap.create ~cmp () in
  List.iter (Binary_heap.push h) xs;
  h

(* Pops until empty: the elements in ascending order. *)
let drain h =
  let rec go acc = match Binary_heap.pop h with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let test_binary_heap_push_pop () =
  let h = Binary_heap.create ~cmp:icmp () in
  Alcotest.(check (option int)) "peek empty" None (Binary_heap.peek h);
  Binary_heap.push h 4;
  Binary_heap.push h 2;
  Binary_heap.push h 6;
  Alcotest.(check (option int)) "peek min" (Some 2) (Binary_heap.peek h);
  Alcotest.(check (option int)) "pop" (Some 2) (Binary_heap.pop h);
  Alcotest.(check (option int)) "pop" (Some 4) (Binary_heap.pop h);
  Binary_heap.push h 1;
  Alcotest.(check (option int)) "pop after interleave" (Some 1) (Binary_heap.pop h);
  Alcotest.(check (option int)) "pop last" (Some 6) (Binary_heap.pop h);
  Alcotest.(check (option int)) "pop empty" None (Binary_heap.pop h)

let test_binary_heap_duplicates () =
  let h = of_list ~cmp:icmp [ 3; 3; 3; 1; 1 ] in
  Alcotest.(check (list int)) "dups kept" [ 1; 1; 3; 3; 3 ] (drain h)

(* Property: the binary heap drains any integer multiset in sorted
   order.  (The name predates the pairing heap's removal; it is kept so
   the test's id stays stable.) *)
let prop_heaps_sort =
  QCheck.Test.make ~name:"binary & pairing heaps sort like List.sort" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let expected = List.sort compare xs in
      drain (of_list ~cmp:icmp xs) = expected)

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
      drain h = List.sort Float.compare xs)

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
      List.iteri
        (fun i x ->
          Binary_heap.push h x;
          if i mod 2 = 1 then
            match Binary_heap.pop h with
            | Some y -> popped := y :: !popped
            | None -> ())
        xs;
      let drained = List.rev !popped @ drain h in
      List.sort compare drained = List.sort compare xs)

let suite =
  [
    Alcotest.test_case "binary heap: push/pop interleave" `Quick
      test_binary_heap_push_pop;
    Alcotest.test_case "binary heap: duplicates" `Quick test_binary_heap_duplicates;
    QCheck_alcotest.to_alcotest prop_heaps_sort;
    QCheck_alcotest.to_alcotest prop_binary_heap_boxed_floats;
    QCheck_alcotest.to_alcotest prop_binary_heap_tuples;
  ]
