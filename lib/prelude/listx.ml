let range lo hi =
  let rec go i acc = if i < lo then acc else go (i - 1) (i :: acc) in
  go hi []

let frange ~lo ~hi ~step =
  assert (step > 0.0);
  let rec go x acc =
    if x > hi +. (step /. 2.0) then List.rev acc else go (x +. step) (x :: acc)
  in
  go lo []

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take (n - 1) xs
