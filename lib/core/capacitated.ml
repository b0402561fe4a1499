module Flow = Tdmd_flow.Flow

type assignment = {
  served : (int * int) list;
  unserved : int list;
  bandwidth : float;
}

let allocate instance ~capacity placement =
  let lambda = instance.Instance.lambda in
  let residual = Hashtbl.create 16 in
  List.iter
    (fun v -> Hashtbl.replace residual v capacity)
    (Placement.to_list placement);
  let flows =
    Array.to_list instance.Instance.flows
    |> List.stable_sort (fun a b -> compare b.Flow.rate a.Flow.rate)
  in
  let served = ref [] and unserved = ref [] and bw = ref 0.0 in
  List.iter
    (fun f ->
      (* Earliest on-path box with spare capacity. *)
      let rec scan i =
        if i = Array.length f.Flow.path then None
        else begin
          let v = f.Flow.path.(i) in
          match Hashtbl.find_opt residual v with
          | Some r when r >= f.Flow.rate -> Some (v, i)
          | _ -> scan (i + 1)
        end
      in
      match scan 0 with
      | Some (v, l) ->
        Hashtbl.replace residual v (Hashtbl.find residual v - f.Flow.rate);
        served := (f.Flow.id, v) :: !served;
        bw :=
          !bw +. Bandwidth.flow_consumption ~lambda f (Allocation.Served_at { vertex = v; l })
      | None ->
        unserved := f.Flow.id :: !unserved;
        bw := !bw +. Bandwidth.flow_consumption ~lambda f Allocation.Unserved)
    flows;
  { served = List.rev !served; unserved = List.rev !unserved; bandwidth = !bw }

let greedy ~k ~capacity instance =
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.count tel "capacity" capacity;
  Tdmd_obs.Telemetry.span_open tel "capacitated";
  let n = Instance.vertex_count instance in
  let eval p =
    Tdmd_obs.Telemetry.count tel "allocations" 1;
    (allocate instance ~capacity p).bandwidth
  in
  let rec round placement current =
    if Placement.size placement >= k then placement
    else begin
      let best = ref (-1) and best_bw = ref current in
      for v = 0 to n - 1 do
        if not (Placement.mem placement v) then begin
          let bw = eval (Placement.add placement v) in
          if bw < !best_bw -. 1e-9 then begin
            best := v;
            best_bw := bw
          end
        end
      done;
      if !best < 0 then placement
      else round (Placement.add placement !best) !best_bw
    end
  in
  let placement = round Placement.empty (eval Placement.empty) in
  let a = allocate instance ~capacity placement in
  Tdmd_obs.Telemetry.span_close tel;
  Tdmd_obs.Telemetry.count tel "unserved_flows" (List.length a.unserved);
  Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
  Solver_intf.outcome ~placement ~bandwidth:a.bandwidth ~feasible:(a.unserved = [])
    ~telemetry:tel
