module Rt = Tdmd_tree.Rooted_tree

let run ~k inst =
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.span_open tel "hat";
  let tree = inst.Instance.Tree.tree in
  let general = Instance.Tree.to_general inst in
  let lca = Tdmd_tree.Lca.build tree in
  let leaves = Rt.leaves tree in
  let placement = ref (Placement.of_list leaves) in
  (* Mirror of [!placement] answering Δb in O(flows through i, j, lca)
     via remove/remove/add probes rolled back with [undo]. *)
  let o = Inc_oracle.of_list general leaves in
  let oracle_ns = ref 0L in
  let round = ref 0 in
  (* Δb(i,j) = b(after) − b(before) = (1−λ)·(dim_before − dim_after),
     with both volumes integers, so λ = 0.5 instances stay exact. *)
  let delta i j =
    Tdmd_obs.Telemetry.count tel "delta_evals" 1;
    let t0 = Tdmd_obs.Clock.now_ns () in
    let before = Inc_oracle.diminished_volume o in
    let a = Tdmd_tree.Lca.query lca i j in
    Inc_oracle.remove o i;
    Inc_oracle.remove o j;
    Inc_oracle.add o a;
    let after = Inc_oracle.diminished_volume o in
    Inc_oracle.undo o;
    Inc_oracle.undo o;
    Inc_oracle.undo o;
    oracle_ns := Int64.add !oracle_ns (Int64.sub (Tdmd_obs.Clock.now_ns ()) t0);
    (1.0 -. general.Instance.lambda) *. float_of_int (before - after)
  in
  (* Heap of (penalty, i, j, round-stamp); ties broken by vertex ids so
     runs are deterministic (and match the paper's k = 2 walkthrough). *)
  let cmp (d1, i1, j1, _) (d2, i2, j2, _) = compare (d1, i1, j1) (d2, i2, j2) in
  let heap = Tdmd_heap.Binary_heap.create ~cmp () in
  let push_pair i j =
    let i, j = if i < j then (i, j) else (j, i) in
    Tdmd_heap.Binary_heap.push heap (delta i j, i, j, !round)
  in
  let push_all_pairs () =
    let vs = Array.of_list (Placement.to_list !placement) in
    let n = Array.length vs in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        push_pair vs.(a) vs.(b)
      done
    done
  in
  push_all_pairs ();
  let merges = ref 0 in
  while Placement.size !placement > max k 1 do
    match Tdmd_heap.Binary_heap.pop heap with
    | None ->
      (* All entries went stale together; rebuild the pair set. *)
      push_all_pairs ()
    | Some (stored, i, j, stamp) ->
      if Placement.mem !placement i && Placement.mem !placement j then begin
        let fresh = if stamp = !round then stored else delta i j in
        let next_is_worse =
          match Tdmd_heap.Binary_heap.peek heap with
          | None -> true
          | Some (d, _, _, _) -> fresh <= d
        in
        if stamp = !round || next_is_worse then begin
          let a = Tdmd_tree.Lca.query lca i j in
          placement :=
            Placement.add (Placement.remove (Placement.remove !placement i) j) a;
          Inc_oracle.remove o i;
          Inc_oracle.remove o j;
          Inc_oracle.add o a;
          incr round;
          incr merges;
          (* Paper's heap update: pairs with i or j die (filtered lazily
             above); pairs with the LCA are inserted. *)
          List.iter
            (fun v -> if v <> a then push_pair v a)
            (Placement.to_list !placement)
        end
        else Tdmd_heap.Binary_heap.push heap (fresh, i, j, !round)
      end
  done;
  let placement = !placement in
  Tdmd_obs.Telemetry.span_close tel;
  Tdmd_obs.Telemetry.count tel "merges" !merges;
  Tdmd_obs.Telemetry.count tel "oracle_ns" (Int64.to_int !oracle_ns);
  Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
  Solver_intf.outcome ~placement
    ~bandwidth:(Bandwidth.total general placement)
    ~feasible:(Allocation.is_feasible general placement)
    ~telemetry:tel
