open Tdmd_prelude

type incremental = {
  restart : unit -> unit;
  gain : int -> float;
  commit : int -> unit;
}

type oracle = {
  ground : int;
  value : int list -> float;
  incremental : incremental option;
}

let make ~ground ~value ?incremental () = { ground; value; incremental }

type result = {
  chosen : int list;
  gains : float list;
  oracle_calls : int;
}

let greedy_incremental ~stop ~k ~ground inc =
  inc.restart ();
  let calls = ref 0 in
  let gain v =
    incr calls;
    inc.gain v
  in
  let in_set = Array.make (max ground 1) false in
  let rec round chosen gains =
    if List.length chosen >= k || stop (List.rev chosen) then
      { chosen = List.rev chosen; gains = List.rev gains; oracle_calls = !calls }
    else begin
      let best = ref (-1) and best_gain = ref 1e-12 in
      for v = 0 to ground - 1 do
        if not in_set.(v) then begin
          let g = gain v in
          if g > !best_gain then begin
            best := v;
            best_gain := g
          end
        end
      done;
      if !best < 0 then
        { chosen = List.rev chosen; gains = List.rev gains; oracle_calls = !calls }
      else begin
        inc.commit !best;
        in_set.(!best) <- true;
        round (!best :: chosen) (!best_gain :: gains)
      end
    end
  in
  round [] []

let greedy ?(stop = fun _ -> false) ~k oracle =
  match oracle.incremental with
  | Some inc -> greedy_incremental ~stop ~k ~ground:oracle.ground inc
  | None ->
    let calls = ref 0 in
    let value s =
      incr calls;
      oracle.value s
    in
    let rec round chosen gains base =
      if List.length chosen >= k || stop (List.rev chosen) then
        { chosen = List.rev chosen; gains = List.rev gains; oracle_calls = !calls }
      else begin
        (* Exact comparison, lowest index wins ties — identical tie
           handling to [lazy_greedy], so the two return the same set. *)
        let best = ref (-1) and best_gain = ref 1e-12 in
        for v = 0 to oracle.ground - 1 do
          if not (List.mem v chosen) then begin
            let g = value (v :: chosen) -. base in
            if g > !best_gain then begin
              best := v;
              best_gain := g
            end
          end
        done;
        if !best < 0 then
          { chosen = List.rev chosen; gains = List.rev gains; oracle_calls = !calls }
        else
          round (!best :: chosen) (!best_gain :: gains) (base +. !best_gain)
      end
    in
    round [] [] (value [])

(* CELF's heap order: gain descending, lower vertex on ties.  The
   annotations specialise [=] and [compare] to floats and ints, so a
   sift does not call the polymorphic comparison on boxed pairs. *)
let by_gain ((g1 : float), (v1 : int)) ((g2 : float), (v2 : int)) =
  if g1 = g2 then compare v1 v2 else compare g2 g1

let lazy_greedy_incremental ~stop ~k ~ground inc =
  inc.restart ();
  let calls = ref 0 in
  let gain v =
    incr calls;
    inc.gain v
  in
  let heap = Tdmd_heap.Binary_heap.create ~cmp:by_gain () in
  for v = 0 to ground - 1 do
    Tdmd_heap.Binary_heap.push heap (infinity, v)
  done;
  let rec select chosen gains =
    if List.length chosen >= k || stop (List.rev chosen) then (chosen, gains)
    else begin
      match Tdmd_heap.Binary_heap.pop heap with
      | None -> (chosen, gains)
      | Some (_, v) ->
        let fresh = gain v in
        (* Same acceptance rule as the naive CELF path below: the fresh
           gain must beat the next cached upper bound, ties deferring to
           the lower index exactly as [greedy] does. *)
        let accept =
          match Tdmd_heap.Binary_heap.peek heap with
          | None -> true
          | Some (g_next, v_next) -> fresh > g_next || (fresh = g_next && v < v_next)
        in
        if accept then begin
          if fresh <= 1e-12 then (chosen, gains)
          else begin
            inc.commit v;
            select (v :: chosen) (fresh :: gains)
          end
        end
        else begin
          Tdmd_heap.Binary_heap.push heap (fresh, v);
          select chosen gains
        end
    end
  in
  let chosen, gains = select [] [] in
  { chosen = List.rev chosen; gains = List.rev gains; oracle_calls = !calls }

let lazy_greedy_naive ?(stop = fun _ -> false) ~k oracle =
  let calls = ref 0 in
  let value s =
    incr calls;
    oracle.value s
  in
  let base = ref (value []) in
  (* Max-heap by cached gain; stale entries are re-evaluated on pop.
     Ties and float noise: an entry is "fresh enough" when re-evaluation
     cannot beat the next candidate. *)
  let heap = Tdmd_heap.Binary_heap.create ~cmp:by_gain () in
  for v = 0 to oracle.ground - 1 do
    Tdmd_heap.Binary_heap.push heap (infinity, v)
  done;
  let rec select chosen gains =
    if List.length chosen >= k || stop (List.rev chosen) then (chosen, gains)
    else begin
      match Tdmd_heap.Binary_heap.pop heap with
      | None -> (chosen, gains)
      | Some (_, v) ->
        let fresh = value (v :: chosen) -. !base in
        (* Cached gains are upper bounds (submodularity), so [v] is the
           true argmax when its fresh gain still beats the next cached
           gain.  The acceptance test is exactly the heap order (ties
           defer to the lower index, matching [greedy]); anything softer
           can disagree with the ordering and re-pop the same entry
           forever. *)
        let accept =
          match Tdmd_heap.Binary_heap.peek heap with
          | None -> true
          | Some (g_next, v_next) -> fresh > g_next || (fresh = g_next && v < v_next)
        in
        if accept then begin
          if fresh <= 1e-12 then (chosen, gains)
          else begin
            base := !base +. fresh;
            select (v :: chosen) (fresh :: gains)
          end
        end
        else begin
          Tdmd_heap.Binary_heap.push heap (fresh, v);
          select chosen gains
        end
    end
  in
  let chosen, gains = select [] [] in
  { chosen = List.rev chosen; gains = List.rev gains; oracle_calls = !calls }

let lazy_greedy ?(stop = fun _ -> false) ~k oracle =
  match oracle.incremental with
  | Some inc -> lazy_greedy_incremental ~stop ~k ~ground:oracle.ground inc
  | None -> lazy_greedy_naive ~stop ~k oracle

let random_subset rng n ~avoid =
  let s = ref [] in
  for v = 0 to n - 1 do
    if v <> avoid && Rng.bool rng then s := v :: !s
  done;
  !s

let check_monotone rng ~trials oracle =
  let rec go t =
    if t = 0 then Ok ()
    else begin
      let v = Rng.int rng oracle.ground in
      let s = random_subset rng oracle.ground ~avoid:v in
      let fs = oracle.value s and fsv = oracle.value (v :: s) in
      if fsv +. 1e-9 < fs then
        Error
          (Printf.sprintf "monotonicity violated: f(S)=%g > f(S+{%d})=%g" fs v fsv)
      else go (t - 1)
    end
  in
  go trials

let check_submodular rng ~trials oracle =
  let rec go t =
    if t = 0 then Ok ()
    else begin
      let v = Rng.int rng oracle.ground in
      let small = random_subset rng oracle.ground ~avoid:v in
      let extra = random_subset rng oracle.ground ~avoid:v in
      let large = List.sort_uniq compare (small @ extra) in
      let gain s = oracle.value (v :: s) -. oracle.value s in
      if gain small +. 1e-9 < gain large then
        Error
          (Printf.sprintf
             "submodularity violated at element %d: gain(small)=%g < gain(large)=%g" v
             (gain small) (gain large))
      else go (t - 1)
    end
  in
  go trials
