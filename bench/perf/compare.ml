(* [compare OLD_DIR NEW_DIR]: for every (workload, metric) in both sets
   of result records, medians and quartiles of each side and a
   verdict:

   - worse: the new median is worse than the old by more than the
     metric's bound from BENCHMARK.json;
   - unresolved: the old runs spread wider than the bound, and not
     every new run beats every old run;
   - better: the new side wins at least 9/10 of the pairs (by seed when
     both sides ran the same seeds, else every old-new pair; ties count
     for neither) and the medians differ by more than the old
     interquartile distance;
   - unchanged otherwise.

   Exact work counters must be equal on both sides.  A worse end-to-end
   metric or a changed counter is a regression: exit code 1.  Per-layer
   metrics have no bound and never gate. *)

type verdict = Better | Worse | Unchanged | Unresolved | Changed

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"
  | Changed -> "CHANGED"

type side = (int * float) list  (* (seed, value) *)

(* [true] when [a] is better than [b] for this metric. *)
let beats (m : Spec.metric) a b =
  match m.Spec.better with Spec.Higher -> a > b | Spec.Lower -> a < b

let pairs (old_ : side) (new_ : side) =
  let common = List.filter (fun (s, _) -> List.mem_assoc s new_) old_ in
  if common <> [] then List.map (fun (s, o) -> (o, List.assoc s new_)) common
  else List.concat_map (fun (_, o) -> List.map (fun (_, n) -> (o, n)) new_) old_

let judge (m : Spec.metric) ~bound (old_ : side) (new_ : side) =
  let ov = List.map snd old_ and nv = List.map snd new_ in
  if m.Spec.exact then
    if List.for_all (fun x -> List.for_all (Float.equal x) (ov @ nv)) ov then Unchanged else Changed
  else begin
    let om = Pct.median ov and nm = Pct.median nv in
    let q1, _, q3 = Pct.quartiles ov in
    let ps = pairs old_ new_ in
    let wins = List.length (List.filter (fun (o, n) -> beats m n o) ps) in
    let losses = List.length (List.filter (fun (o, n) -> beats m o n) ps) in
    let total = float_of_int (List.length ps) in
    let clear_gap = Float.abs (nm -. om) > q3 -. q1 in
    let all_new_better = List.for_all (fun n -> List.for_all (fun o -> beats m n o) ov) nv in
    let gain_rule () =
      if float_of_int wins >= 0.9 *. total && clear_gap && beats m nm om then Better
      else if float_of_int losses >= 0.9 *. total && clear_gap && beats m om nm then Worse
      else Unchanged
    in
    match bound with
    | None -> gain_rule ()
    | Some b ->
      let worse_by =
        (match m.Spec.better with Spec.Lower -> nm -. om | Spec.Higher -> om -. nm) /. Float.abs om
      in
      if Pct.spread ov > b then if all_new_better then Better else Unresolved
      else if worse_by > b then Worse
      else if gain_rule () = Better then Better
      else Unchanged
  end

(* End-to-end values from untraced records where a side has them;
   per-layer values exist in traced records only.  Quick and invalid
   records are not comparable and are skipped. *)
let side (records : Report.record list) ~workload (m : Spec.metric) =
  let of_kind trace =
    List.filter_map
      (fun (r : Report.record) ->
        if
          r.Report.r_workload = workload
          && r.Report.r_trace = trace
          && r.Report.r_valid
          && not r.Report.r_quick
        then
          Option.map (fun v -> (r.Report.r_seed, v)) (List.assoc_opt m.Spec.name r.Report.r_metrics)
        else None)
      records
  in
  match of_kind false with [] -> of_kind true | l -> l

let run ~spec ~old_dir ~new_dir =
  match (Spec.load spec, Report.read_records old_dir, Report.read_records new_dir) with
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg ->
    prerr_endline ("compare: " ^ msg);
    2
  | Ok decl, Ok olds, Ok news ->
    let bound name =
      List.find_map
        (fun (d : Spec.declared) -> if d.Spec.d_name = name then d.Spec.d_bound else None)
        decl.Spec.e2e
    in
    let regressions = ref 0 in
    Printf.printf "%-12s %-26s %12s %23s %12s %23s %8s  %s\n" "workload" "metric" "old median"
      "old [q1, q3]" "new median" "new [q1, q3]" "delta" "verdict";
    List.iter
      (fun workload ->
        List.iter
          (fun (m : Spec.metric) ->
            let o = side olds ~workload m and n = side news ~workload m in
            if o <> [] && n <> [] then begin
              let e2e = List.exists (fun (x : Spec.metric) -> x.Spec.name = m.Spec.name) Spec.end_to_end in
              let v = judge m ~bound:(if e2e then bound m.Spec.name else None) o n in
              if (e2e && v = Worse) || v = Changed then incr regressions;
              let q l = let a, _, c = Pct.quartiles (List.map snd l) in Printf.sprintf "[%.4g, %.4g]" a c in
              let om = Pct.median (List.map snd o) and nm = Pct.median (List.map snd n) in
              Printf.printf "%-12s %-26s %12.5g %23s %12.5g %23s %+7.1f%%  %s%s\n" workload m.Spec.name om
                (q o) nm (q n)
                (if Float.equal om 0.0 then 0.0 else 100.0 *. (nm -. om) /. Float.abs om)
                (verdict_to_string v)
                (if e2e || m.Spec.exact then "" else " (layer, not gated)")
            end)
          Spec.all)
      Workload.names;
    Printf.printf "%d regression(s)\n" !regressions;
    if !regressions > 0 then 1 else 0
