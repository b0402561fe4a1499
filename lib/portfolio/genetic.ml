module Oracle = Tdmd.Inc_oracle
module Rng = Tdmd_prelude.Rng

type indiv = { verts : int list; volume : int; ok : bool }

(* Strict fitness order: feasible beats infeasible, then higher exact
   volume, then the lexicographically smaller placement.  Strictness
   makes worst-replacement deterministic under ties. *)
let fitter a b =
  if a.ok <> b.ok then a.ok
  else if a.volume <> b.volume then a.volume > b.volume
  else Search.compare_verts a.verts b.verts < 0

let pop_size = 12

let tournament rng pop =
  let i = Rng.int rng (Array.length pop) in
  let j = Rng.int rng (Array.length pop) in
  if fitter pop.(j) pop.(i) then pop.(j) else pop.(i)

(* Uniform crossover over the parents' union: vertices both parents
   agree on are kept, the rest are coin-flipped. *)
let crossover rng a b =
  let union = List.sort_uniq Int.compare (a.verts @ b.verts) in
  List.filter
    (fun v -> (List.mem v a.verts && List.mem v b.verts) || Rng.bool rng)
    union

let mutate rng useful child =
  if Rng.int rng 4 <> 0 then child
  else
    let v = useful.(Rng.int rng (Array.length useful)) in
    if List.mem v child then List.filter (fun u -> u <> v) child
    else v :: child

(* Enforce the budget by keeping a uniformly-drawn k-subset. *)
let clamp rng ~k verts =
  let arr = Array.of_list verts in
  if Array.length arr <= k then verts
  else begin
    Rng.shuffle rng arr;
    List.sort_uniq Int.compare (Array.to_list (Array.sub arr 0 k))
  end

let run ~rng ~k ~steps ?init ?(should_stop = fun () -> false)
    ?(on_best = fun ~volume:_ ~placement:_ -> ()) inst =
  let useful = Search.useful_vertices inst in
  if k <= 0 || Array.length useful = 0 then
    Search.no_result ~feasible:(Oracle.is_feasible (Oracle.create inst))
  else begin
    let oracle = Oracle.create inst in
    (* The fix-up journals its edits and this oracle is never undone, so
       each child starts from empty: the reset keeps the journal to one
       child's edits instead of the whole run's. *)
    let assess verts =
      Oracle.reset oracle;
      ignore (Tdmd.Cover_fixup.within oracle ~chosen:verts ~budget:k);
      {
        verts = Search.sorted_verts oracle;
        volume = Oracle.diminished_volume oracle;
        ok = Oracle.is_feasible oracle;
      }
    in
    let random_verts () =
      let want = 1 + Rng.int rng k in
      let rec draw acc n attempts =
        if n >= want || attempts >= 4 * want then acc
        else
          let v = useful.(Rng.int rng (Array.length useful)) in
          if List.mem v acc then draw acc n (attempts + 1)
          else draw (v :: acc) (n + 1) (attempts + 1)
      in
      draw [] 0 0
    in
    let seed0 =
      match init with Some p -> p | None -> Search.greedy_cover inst ~k
    in
    (* Explicit fill loop: rng draws must happen in slot order, which
       [Array.init]'s evaluation order does not guarantee. *)
    let pop = Array.make pop_size (assess seed0) in
    for i = 1 to pop_size - 1 do
      pop.(i) <- assess (random_verts ())
    done;
    let best = ref None in
    let improvements = ref 0 in
    let consider ind =
      if ind.ok then begin
        let improved =
          match !best with None -> true | Some b -> ind.volume > b.volume
        in
        if improved then begin
          best := Some ind;
          incr improvements;
          on_best ~volume:ind.volume ~placement:ind.verts
        end
      end
    in
    Array.iter consider pop;
    let executed = ref 0 in
    (try
       for _step = 0 to steps - 1 do
         if should_stop () then raise Stdlib.Exit;
         incr executed;
         let a = tournament rng pop in
         let b = tournament rng pop in
         let child =
           clamp rng ~k (mutate rng useful (crossover rng a b))
         in
         let ind = assess child in
         (* Steady state: the child replaces the current worst, and only
            when strictly fitter. *)
         let worst = ref 0 in
         for i = 1 to pop_size - 1 do
           if fitter pop.(!worst) pop.(i) then worst := i
         done;
         if fitter ind pop.(!worst) then pop.(!worst) <- ind;
         consider ind
       done
     with Stdlib.Exit -> ());
    match !best with
    | Some ind ->
      {
        Search.placement = ind.verts;
        volume = ind.volume;
        feasible = true;
        steps = !executed;
        improvements = !improvements;
      }
    | None ->
      {
        Search.placement = [];
        volume = 0;
        feasible = false;
        steps = !executed;
        improvements = 0;
      }
  end
