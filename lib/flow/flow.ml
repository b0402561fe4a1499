type t = {
  id : int;
  rate : int;
  path : int array;
}

let make ~id ~rate ~path =
  if rate <= 0 then invalid_arg "Flow.make: rate must be positive";
  if path = [] then invalid_arg "Flow.make: empty path";
  let arr = Array.of_list path in
  let seen = Hashtbl.create (Array.length arr) in
  Array.iter
    (fun v ->
      if Hashtbl.mem seen v then invalid_arg "Flow.make: repeated vertex in path";
      Hashtbl.add seen v ())
    arr;
  { id; rate; path = arr }

let src f = f.path.(0)
let hop_count f = Array.length f.path - 1

let validate g f =
  let rec check i =
    if i + 1 >= Array.length f.path then Ok ()
    else if Tdmd_graph.Digraph.mem_edge g f.path.(i) f.path.(i + 1) then check (i + 1)
    else
      Error
        (Printf.sprintf "flow %d: missing arc %d -> %d" f.id f.path.(i) f.path.(i + 1))
  in
  check 0

let merge_same_source flows =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun f ->
      let key = Array.to_list f.path in
      match Hashtbl.find_opt tbl key with
      | Some merged -> Hashtbl.replace tbl key { merged with rate = merged.rate + f.rate }
      | None ->
        Hashtbl.add tbl key f;
        order := key :: !order)
    flows;
  List.rev !order
  |> List.mapi (fun i key -> { (Hashtbl.find tbl key) with id = i })

let total_path_volume flows =
  List.fold_left (fun acc f -> acc + (f.rate * hop_count f)) 0 flows
