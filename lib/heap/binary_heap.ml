(* Slots are ['a option] so empty cells are an honest [None] rather than
   the old [Obj.magic 0] dummy — which was unsound for heaps of boxed
   floats ([Array.make] specialises on the runtime representation of its
   seed) and pinned popped elements alive for the life of the heap. *)
type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a option array;
  mutable size : int;
}

let create ?(capacity = 16) ~cmp () =
  { cmp; data = Array.make (max capacity 1) None; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

let get t i = match t.data.(i) with Some x -> x | None -> assert false

let grow t =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let data = Array.make (2 * cap) None in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp (get t i) (get t parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp (get t l) (get t !smallest) < 0 then smallest := l;
  if r < t.size && t.cmp (get t r) (get t !smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t x =
  grow t;
  t.data.(t.size) <- Some x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else t.data.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    t.data.(0) <- t.data.(t.size);
    (* Clear the vacated slot so the element can be collected. *)
    t.data.(t.size) <- None;
    if t.size > 0 then sift_down t 0;
    top
  end

let of_list ~cmp xs =
  match xs with
  | [] -> create ~cmp ()
  | _ ->
    let data = Array.of_list (List.map Option.some xs) in
    let t = { cmp; data; size = Array.length data } in
    for i = (t.size / 2) - 1 downto 0 do
      sift_down t i
    done;
    t

let to_sorted_list t =
  let rec drain acc =
    match pop t with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  drain []
