open Tdmd
module Flow = Tdmd_flow.Flow

type spec = { ratios : float array }

let make_spec ratios =
  if ratios = [] then invalid_arg "Chain.make_spec: empty chain";
  List.iter
    (fun r -> if r < 0.0 then invalid_arg "Chain.make_spec: negative ratio")
    ratios;
  { ratios = Array.of_list ratios }

type deployment = (int * int) list

(* Lexicographic on (vertex, type index). *)
let normalize pairs =
  List.sort_uniq
    (fun (v1, i1) (v2, i2) -> if v1 <> v2 then Int.compare v1 v2 else Int.compare i1 i2)
    pairs

type flow_service = {
  flow_id : int;
  stages : (int * int) list;
  complete : bool;
  consumption : float;
}

(* Cumulative rate multiplier after the first [i] chain stages. *)
let prefix_ratio spec i =
  let acc = ref 1.0 in
  for j = 0 to i - 1 do
    acc := !acc *. spec.ratios.(j)
  done;
  !acc

let serve_flow spec deployment f =
  let m = Array.length spec.ratios in
  let path = f.Flow.path in
  let rate0 = float_of_int f.Flow.rate in
  let stages = ref [] in
  let next = ref 0 in
  let consumption = ref 0.0 in
  for i = 0 to Array.length path - 1 do
    (* Consume instances at this vertex in chain order. *)
    let continue = ref true in
    while !continue && !next < m do
      if List.mem (path.(i), !next) deployment then begin
        stages := (!next, path.(i)) :: !stages;
        incr next
      end
      else continue := false
    done;
    if i < Array.length path - 1 then
      consumption := !consumption +. (rate0 *. prefix_ratio spec !next)
  done;
  {
    flow_id = f.Flow.id;
    stages = List.rev !stages;
    complete = !next = m;
    consumption = !consumption;
  }

let allocate spec instance deployment =
  let deployment = normalize deployment in
  let services =
    Array.to_list (Array.map (serve_flow spec deployment) instance.Instance.flows)
  in
  (services, List.fold_left (fun acc s -> acc +. s.consumption) 0.0 services)

let feasible spec instance deployment =
  let services, _ = allocate spec instance deployment in
  List.for_all (fun s -> s.complete) services

(* Optimal positions for a lone flow: dp.(i).(q) = minimal consumption
   of the first q edges having placed the first i types at offsets
   <= q.  Transition: either advance one edge at the current prefix
   rate, or place the next type at the current offset. *)
let single_flow spec ~rate ~hops =
  assert (rate > 0 && hops >= 0);
  let m = Array.length spec.ratios in
  let r = float_of_int rate in
  let dp = Array.make_matrix (m + 1) (hops + 1) infinity in
  let from = Array.make_matrix (m + 1) (hops + 1) `None in
  dp.(0).(0) <- 0.0;
  for i = 0 to m do
    for q = 0 to hops do
      let cur = dp.(i).(q) in
      if cur < infinity then begin
        if q < hops then begin
          let cost = cur +. (r *. prefix_ratio spec i) in
          if cost < dp.(i).(q + 1) then begin
            dp.(i).(q + 1) <- cost;
            from.(i).(q + 1) <- `Edge
          end
        end;
        if i < m && cur < dp.(i + 1).(q) then begin
          dp.(i + 1).(q) <- cur;
          from.(i + 1).(q) <- `Place
        end
      end
    done
  done;
  (* Trace back the positions of each placement. *)
  let rec walk i q acc =
    if i = 0 && q = 0 then acc
    else begin
      match from.(i).(q) with
      | `Edge -> walk i (q - 1) acc
      | `Place -> walk (i - 1) q (q :: acc)
      | `None -> assert false
    end
  in
  (walk m hops [], dp.(m).(hops))

type report = {
  deployment : deployment;
  bandwidth : float;
  feasible : bool;
}

let greedy ~k spec instance =
  let n = Instance.vertex_count instance in
  let m = Array.length spec.ratios in
  let eval d = snd (allocate spec instance d) in
  let all_pairs =
    List.concat_map
      (fun v -> List.init m (fun t -> (v, t)))
      (Tdmd_prelude.Listx.range 0 (n - 1))
  in
  let rec rounds chosen current =
    if List.length chosen >= k then chosen
    else begin
      let best = ref None in
      List.iter
        (fun pair ->
          if not (List.mem pair chosen) then begin
            let bw = eval (normalize (pair :: chosen)) in
            match !best with
            | Some (_, b) when b <= bw -> ()
            | _ -> if bw < current -. 1e-9 then best := Some (pair, bw)
          end)
        all_pairs;
      match !best with
      | None -> chosen
      | Some (pair, bw) -> rounds (pair :: chosen) bw
    end
  in
  let chosen = rounds [] (eval []) in
  (* Covering fix-up: complete the chains of unfinished flows with the
     pair that completes the most stages, budget permitting. *)
  let rec cover chosen =
    if List.length chosen >= k || feasible spec instance (normalize chosen) then chosen
    else begin
      let services, _ = allocate spec instance (normalize chosen) in
      let progress pair =
        let services', _ = allocate spec instance (normalize (pair :: chosen)) in
        List.fold_left2
          (fun acc before after ->
            acc + (List.length after.stages - List.length before.stages))
          0 services services'
      in
      let candidates = List.filter (fun p -> not (List.mem p chosen)) all_pairs in
      match candidates with
      | [] -> chosen
      | c :: rest ->
        (* The first candidate wins ties. *)
        let best, gain =
          List.fold_left
            (fun (b, g) p ->
              let g' = progress p in
              if g' > g then (p, g') else (b, g))
            (c, progress c) rest
        in
        if gain <= 0 then chosen else cover (best :: chosen)
    end
  in
  let chosen = normalize (cover chosen) in
  {
    deployment = chosen;
    bandwidth = eval chosen;
    feasible = feasible spec instance chosen;
  }
