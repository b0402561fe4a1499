module Flow = Tdmd_flow.Flow

type assignment = {
  served : (int * int) list;
  unserved : int list;
  volume : int;
}

let allocate instance ~capacity placement =
  let residual = Hashtbl.create 16 in
  List.iter
    (fun v -> Hashtbl.replace residual v capacity)
    (Placement.to_list placement);
  let flows =
    Array.to_list instance.Instance.flows
    |> List.stable_sort (fun a b -> Int.compare b.Flow.rate a.Flow.rate)
  in
  let served = ref [] and unserved = ref [] and volume = ref 0 in
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
        volume := !volume + (f.Flow.rate * (Flow.hop_count f - l))
      | None -> unserved := f.Flow.id :: !unserved)
    flows;
  { served = List.rev !served; unserved = List.rev !unserved; volume = !volume }

(* A candidate is taken when it strictly raises the volume; at λ = 1,
   where no box lowers b, none is. *)
let greedy ~k ~capacity instance =
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.count tel "capacity" capacity;
  Tdmd_obs.Telemetry.span_open tel "capacitated";
  let n = Instance.vertex_count instance in
  let diminishes = Bandwidth.diminishes instance.Instance.lambda in
  let eval p =
    Tdmd_obs.Telemetry.count tel "allocations" 1;
    (allocate instance ~capacity p).volume
  in
  let rec round placement current =
    if Placement.size placement >= k then placement
    else begin
      let best = ref (-1) and best_volume = ref current in
      for v = 0 to n - 1 do
        if not (Placement.mem placement v) then begin
          let d = eval (Placement.add placement v) in
          if diminishes && d > !best_volume then begin
            best := v;
            best_volume := d
          end
        end
      done;
      if !best < 0 then placement
      else round (Placement.add placement !best) !best_volume
    end
  in
  let placement = round Placement.empty (eval Placement.empty) in
  let a = allocate instance ~capacity placement in
  Tdmd_obs.Telemetry.span_close tel;
  Tdmd_obs.Telemetry.count tel "unserved_flows" (List.length a.unserved);
  Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
  Solver_intf.outcome ~lambda:instance.Instance.lambda
    ~total:(Instance.total_path_volume instance) ~placement ~volume:a.volume
    ~feasible:(a.unserved = []) ~telemetry:tel
