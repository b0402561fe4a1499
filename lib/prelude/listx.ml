let range lo hi =
  let rec go i acc = if i < lo then acc else go (i - 1) (i :: acc) in
  go hi []

let frange ~lo ~hi ~step =
  assert (step > 0.0);
  let rec go x acc =
    if x > hi +. (step /. 2.0) then List.rev acc else go (x +. step) (x :: acc)
  in
  go lo []

let sum_by f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

let max_by f = function
  | [] -> invalid_arg "Listx.max_by: empty list"
  | x :: xs ->
    let best, _ =
      List.fold_left
        (fun (bx, bk) y ->
          let k = f y in
          if k > bk then (y, k) else (bx, bk))
        (x, f x) xs
    in
    best

let min_by f xs = max_by (fun x -> -.f x) xs

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take (n - 1) xs

let group_by key xs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let k = key x in
      let cur = try Hashtbl.find tbl k with Not_found -> [] in
      Hashtbl.replace tbl k (x :: cur))
    xs;
  Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
