module Rt = Tdmd_tree.Rooted_tree

let run ~k inst =
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.span_open tel "hat";
  let tree = inst.Instance.Tree.tree in
  let general = Instance.Tree.to_general inst in
  let lca = Tdmd_tree.Lca.build tree in
  (* A box on every leaf; none at k = 0, so the loop below never runs. *)
  let leaves = if k < 1 then [] else Rt.leaves tree in
  let placement = ref (Placement.of_list leaves) in
  (* Mirror of [!placement] answering Δb in O(flows through i, j, lca)
     via remove/remove/add probes rolled back with [undo]. *)
  let o = Inc_oracle.of_list general leaves in
  let oracle_ns = ref 0L in
  let round = ref 0 in
  let diminishes = Bandwidth.diminishes general.Instance.lambda in
  (* Δb(i,j) = (1−λ)·ΔD with ΔD = dim_before − dim_after, so the heap
     keys on the integer ΔD; at λ = 1 every Δb is 0 and the key too, so
     vertex order decides. *)
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
    if diminishes then before - after else 0
  in
  (* Heap of (ΔD, i, j, round-stamp) in (ΔD, i, j) order: ties broken by
     vertex ids so runs are deterministic (and match the paper's k = 2
     walkthrough). *)
  let cmp (d1, i1, j1, _) (d2, i2, j2, _) =
    if d1 <> d2 then Int.compare d1 d2
    else if i1 <> i2 then Int.compare i1 i2
    else Int.compare j1 j2
  in
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
  while Placement.size !placement > k do
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
  Solver_intf.outcome ~lambda:general.Instance.lambda
    ~total:(Instance.total_path_volume general) ~placement
    ~volume:(Inc_oracle.diminished_volume o) ~feasible:(Inc_oracle.is_feasible o)
    ~telemetry:tel
