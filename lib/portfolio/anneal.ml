module Oracle = Tdmd.Inc_oracle
module Rng = Tdmd_prelude.Rng

(* Final temperature = t0 / cooling_floor: low enough that late-stage
   moves are effectively greedy. *)
let cooling_floor = 256.0

(* Steps per halving of the temperature.  The schedule is a function of
   the absolute step index alone — NOT of the total budget — so a run
   at a larger step budget replays a smaller run's draws exactly and
   its best-so-far can only be equal or better.  That prefix property
   is what makes the quality-vs-budget curve provably monotone. *)
let half_life = 200.0

(* Bounded rejection sampling: a placement covering most of the useful
   pool would otherwise make the draw loop unbounded.  Returning [None]
   after 8 misses keeps every step O(1) and, crucially, keeps the rng
   draw count a pure function of the walk so runs are reproducible. *)
let pick_absent rng oracle useful =
  let len = Array.length useful in
  let rec go attempts =
    if attempts >= 8 then None
    else
      let v = useful.(Rng.int rng len) in
      if Oracle.mem oracle v then go (attempts + 1) else Some v
  in
  if len = 0 then None else go 0

let pick_deployed rng oracle =
  match Search.sorted_verts oracle with
  | [] -> None
  | verts -> Some (List.nth verts (Rng.int rng (List.length verts)))

let run ~rng ~k ~steps ?init ?(should_stop = fun () -> false)
    ?(on_best = fun ~volume:_ ~placement:_ -> ()) inst =
  let useful = Search.useful_vertices inst in
  if k <= 0 || Array.length useful = 0 then
    Search.no_result ~feasible:(Oracle.is_feasible (Oracle.create inst))
  else begin
    let start =
      match init with
      | Some p -> Tdmd.Cover_fixup.within (Oracle.create inst) ~chosen:p ~budget:k
      | None -> Search.greedy_cover inst ~k
    in
    let oracle = Oracle.of_list inst start in
    (* The repair runs on its own oracle: the fix-up's cover questions
       build that oracle's ledger, and the walk, which only edits
       [oracle] between repairs, never pays to keep one current.  The
       fix-up journals its edits and [repair] is never undone, so each
       repair starts from empty: the reset keeps the journal to one
       repair's edits instead of the whole run's. *)
    let repair = Oracle.create inst in
    let cur = ref (Oracle.diminished_volume oracle) in
    let best = ref None in
    let improvements = ref 0 in
    let publish () =
      if Oracle.is_feasible oracle then begin
        let improved =
          match !best with None -> true | Some (bv, _) -> !cur > bv
        in
        if improved then begin
          let verts = Search.sorted_verts oracle in
          best := Some (!cur, verts);
          incr improvements;
          on_best ~volume:!cur ~placement:verts
        end
      end
    in
    publish ();
    let t0 = Float.max 1.0 (float_of_int !cur /. 8.0) in
    let temp i =
      Float.max
        (t0 /. cooling_floor)
        (t0 *. (0.5 ** (float_of_int i /. half_life)))
    in
    (* Metropolis on the integer delta; floats appear only in the accept
       draw, never in objective comparisons. *)
    let accept delta i =
      delta >= 0 || Rng.float rng 1.0 < Float.exp (float_of_int delta /. temp i)
    in
    let executed = ref 0 in
    (try
       for i = 0 to steps - 1 do
         if should_stop () then raise Stdlib.Exit;
         incr executed;
         let size = Oracle.size oracle in
         let kind =
           if size = 0 then `Add
           else if size >= k then if Rng.bool rng then `Swap else `Drop
           else match Rng.int rng 3 with 0 -> `Add | 1 -> `Drop | _ -> `Swap
         in
         (match kind with
         | `Add -> (
           match pick_absent rng oracle useful with
           | None -> ()
           | Some v ->
             (* Adds never decrease diminished volume: always accept. *)
             Oracle.add oracle v;
             cur := Oracle.diminished_volume oracle)
         | `Drop -> (
           match pick_deployed rng oracle with
           | None -> ()
           | Some v ->
             Oracle.remove oracle v;
             let nv = Oracle.diminished_volume oracle in
             if accept (nv - !cur) i then cur := nv else Oracle.undo oracle)
         | `Swap -> (
           match pick_deployed rng oracle with
           | None -> ()
           | Some u -> (
             Oracle.remove oracle u;
             match pick_absent rng oracle useful with
             | None -> Oracle.undo oracle
             | Some v ->
               Oracle.add oracle v;
               let nv = Oracle.diminished_volume oracle in
               if accept (nv - !cur) i then cur := nv
               else begin
                 Oracle.undo oracle;
                 Oracle.undo oracle
               end)));
         (* Infeasible excursions are allowed (dropping a lone cover
            vertex can be the gateway to a better basin) but never
            published; drag the walk back through the repair
            periodically so publishable states keep appearing. *)
         if (not (Oracle.is_feasible oracle)) && i land 31 = 0 then begin
           Oracle.reset repair;
           let repaired =
             Tdmd.Cover_fixup.within repair ~chosen:(Search.sorted_verts oracle)
               ~budget:k
           in
           Oracle.reset oracle;
           List.iter (Oracle.add oracle) repaired;
           cur := Oracle.diminished_volume oracle
         end;
         publish ()
       done
     with Stdlib.Exit -> ());
    match !best with
    | Some (volume, placement) ->
      {
        Search.placement;
        volume;
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
