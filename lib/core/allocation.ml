module Flow = Tdmd_flow.Flow

type serving =
  | Unserved
  | Served_at of { vertex : int; l : int }

let serve placement f =
  let path = f.Flow.path in
  let rec scan i =
    if i = Array.length path then Unserved
    else if Placement.mem placement path.(i) then Served_at { vertex = path.(i); l = i }
    else scan (i + 1)
  in
  scan 0

let mask instance placement =
  let n = Instance.vertex_count instance in
  let m = Bytes.make n '\000' in
  List.iter (fun v -> if v >= 0 && v < n then Bytes.set m v '\001') (Placement.to_list placement);
  m

let first_in mask f =
  let path = f.Flow.path in
  let len = Array.length path in
  let i = ref 0 in
  while !i < len && Bytes.get mask path.(!i) = '\000' do
    incr i
  done;
  !i

let all instance placement =
  let m = mask instance placement in
  Array.map
    (fun f ->
      let l = first_in m f in
      if l = Array.length f.Flow.path then Unserved
      else Served_at { vertex = f.Flow.path.(l); l })
    instance.Instance.flows

let is_feasible instance placement =
  let m = mask instance placement in
  Array.for_all
    (fun f -> first_in m f < Array.length f.Flow.path)
    instance.Instance.flows

let unserved instance placement =
  let m = mask instance placement in
  Array.to_list instance.Instance.flows
  |> List.filter (fun f -> first_in m f = Array.length f.Flow.path)
