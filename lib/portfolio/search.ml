module Oracle = Tdmd.Inc_oracle

type result = {
  placement : int list;
  volume : int;
  feasible : bool;
  steps : int;
  improvements : int;
}

let no_result ~feasible =
  { placement = []; volume = 0; feasible; steps = 0; improvements = 0 }

let useful_vertices inst =
  let n = Tdmd.Instance.vertex_count inst in
  let on_path = Array.make n false in
  Array.iter
    (fun f -> Array.iter (fun v -> on_path.(v) <- true) f.Tdmd_flow.Flow.path)
    inst.Tdmd.Instance.flows;
  let acc = ref [] in
  for v = n - 1 downto 0 do
    if on_path.(v) then acc := v :: !acc
  done;
  Array.of_list !acc

let greedy_cover inst ~k =
  if k <= 0 then [] else Tdmd.Cover_fixup.within (Oracle.create inst) ~chosen:[] ~budget:k

let eval oracle verts =
  Oracle.reset oracle;
  List.iter (fun v -> if not (Oracle.mem oracle v) then Oracle.add oracle v) verts;
  (Oracle.diminished_volume oracle, Oracle.is_feasible oracle)

let sorted_verts oracle = Tdmd.Placement.to_list (Oracle.placement oracle)

let rec compare_verts a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' -> if x <> y then Int.compare x y else compare_verts a' b'
