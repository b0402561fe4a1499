module Flow = Tdmd_flow.Flow

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

let is_feasible instance placement =
  let m = mask instance placement in
  Array.for_all
    (fun f -> first_in m f < Array.length f.Flow.path)
    instance.Instance.flows
