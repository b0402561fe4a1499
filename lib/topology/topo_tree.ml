open Tdmd_prelude
module Rt = Tdmd_tree.Rooted_tree

let random_attachment rng n =
  assert (n >= 1);
  let parents = Array.make n (-1) in
  for v = 1 to n - 1 do
    parents.(v) <- Rng.int rng v
  done;
  Rt.of_parents ~root:0 parents

let resize rng tree n =
  assert (n >= 1);
  let cur = ref tree in
  while Rt.size !cur < n do
    let sz = Rt.size !cur in
    let parents = Array.make (sz + 1) (-1) in
    for v = 0 to sz - 1 do
      parents.(v) <- Rt.parent !cur v
    done;
    parents.(sz) <- Rng.int rng sz;
    cur := Rt.of_parents ~root:(Rt.root !cur) parents
  done;
  while Rt.size !cur > n do
    let sz = Rt.size !cur in
    let root = Rt.root !cur in
    let doomed =
      let ls = List.filter (fun v -> v <> root) (Rt.leaves !cur) in
      Rng.choose rng (Array.of_list ls)
    in
    (* Renumber: drop [doomed], shift higher ids down by one. *)
    let remap v = if v > doomed then v - 1 else v in
    let parents = Array.make (sz - 1) (-1) in
    for v = 0 to sz - 1 do
      if v <> doomed then begin
        let p = Rt.parent !cur v in
        parents.(remap v) <- (if p = -1 then -1 else remap p)
      end
    done;
    cur := Rt.of_parents ~root:(remap root) parents
  done;
  !cur
