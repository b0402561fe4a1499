(* Reference implementations for the differential tests: the
   straightforward forms the library's flat versions replaced, kept
   verbatim so every optimised path can be checked against them.

   - the objective scans ([serve], [all], [total], [diminished_volume],
     [is_feasible], [unserved]) test membership with [Placement.mem], a
     list scan per path vertex;
   - [refine] is the probe-and-undo local search: every candidate is
     applied to the oracle with [add], scored, and rolled back with
     [undo], and the oracle is rebuilt after every accepted move;
   - [within] (the cover fix-up), [oracle_naive] with [gtp] over it,
     and HAT's [delta_b] with the [hat] merge loop answer every query
     by a from-scratch scan;
   - [Churn] is the churn engine with every decision taken over an
     instance rebuilt from the live flows. *)

module Flow = Tdmd_flow.Flow
module Allocation = Tdmd.Allocation
module Placement = Tdmd.Placement
module Inc_oracle = Tdmd.Inc_oracle

let serve placement f =
  let path = f.Flow.path in
  let rec scan i =
    if i = Array.length path then Allocation.Unserved
    else if Placement.mem placement path.(i) then
      Allocation.Served_at { vertex = path.(i); l = i }
    else scan (i + 1)
  in
  scan 0

let all instance placement = Array.map (serve placement) instance.Tdmd.Instance.flows

let is_feasible instance placement =
  Array.for_all
    (fun f -> serve placement f <> Allocation.Unserved)
    instance.Tdmd.Instance.flows

let unserved instance placement =
  Array.to_list instance.Tdmd.Instance.flows
  |> List.filter (fun f -> serve placement f = Allocation.Unserved)

let total instance placement =
  let lambda = instance.Tdmd.Instance.lambda in
  Array.fold_left
    (fun acc f -> acc +. Tdmd.Bandwidth.flow_consumption ~lambda f (serve placement f))
    0.0 instance.Tdmd.Instance.flows

let diminished_volume instance placement =
  Array.fold_left
    (fun acc f ->
      match serve placement f with
      | Allocation.Unserved -> acc
      | Allocation.Served_at { l; _ } -> acc + (f.Flow.rate * (Flow.hop_count f - l)))
    0 instance.Tdmd.Instance.flows

let refine ?(max_rounds = 1000) ~k instance placement =
  if not (is_feasible instance placement) then
    invalid_arg "Local_search.refine: infeasible starting deployment";
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.span_open tel "local-search";
  let n = Tdmd.Instance.vertex_count instance in
  let evaluations = ref 0 in
  let oracle_ns = ref 0L in
  let rec round t placement current swaps rounds_left =
    if rounds_left = 0 then (placement, current, swaps)
    else begin
      let best = ref None in
      (* [t] currently reflects the candidate; [rebuild] materialises it
         as a Placement.t only when it becomes the new best. *)
      let consider rebuild =
        if Inc_oracle.is_feasible t then begin
          incr evaluations;
          let bw = Inc_oracle.bandwidth t in
          match !best with
          | Some (_, b) when b <= bw -> ()
          | _ -> if bw < current -. 1e-9 then best := Some (rebuild (), bw)
        end
      in
      let probe v rebuild =
        Tdmd_obs.Telemetry.count tel "delta_evals" 1;
        let t0 = Tdmd_obs.Clock.now_ns () in
        Inc_oracle.add t v;
        consider rebuild;
        Inc_oracle.undo t;
        oracle_ns := Int64.add !oracle_ns (Int64.sub (Tdmd_obs.Clock.now_ns ()) t0)
      in
      (* Pure additions while under budget. *)
      if Placement.size placement < k then
        for v = 0 to n - 1 do
          if not (Placement.mem placement v) then
            probe v (fun () -> Placement.add placement v)
        done;
      (* One-for-one swaps. *)
      List.iter
        (fun out ->
          Inc_oracle.remove t out;
          let without = Placement.remove placement out in
          for v = 0 to n - 1 do
            if (not (Placement.mem placement v)) && v <> out then
              probe v (fun () -> Placement.add without v)
          done;
          Inc_oracle.undo t)
        (Placement.to_list placement);
      match !best with
      | None -> (placement, current, swaps)
      | Some (next, bw) ->
        round (Inc_oracle.of_list instance (Placement.to_list next)) next bw
          (swaps + 1) (rounds_left - 1)
    end
  in
  let t0 = Inc_oracle.of_list instance (Placement.to_list placement) in
  let start_bw = Inc_oracle.bandwidth t0 in
  let placement, _, swaps = round t0 placement start_bw 0 max_rounds in
  let bandwidth = total instance placement in
  Tdmd_obs.Telemetry.span_close tel;
  Tdmd_obs.Telemetry.count tel "swaps" swaps;
  Tdmd_obs.Telemetry.count tel "evaluations" !evaluations;
  Tdmd_obs.Telemetry.count tel "oracle_ns" (Int64.to_int !oracle_ns);
  Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
  Tdmd.Solver_intf.outcome ~placement ~bandwidth ~feasible:true ~telemetry:tel

(* The cover fix-up by full rescans: the vertex covering the most of the
   given unserved flows (lowest vertex on ties), chosen vertices
   excluded — the quadratic List.mem/List.filter formulation. *)
let best_cover_vertex instance chosen unserved =
  let best = ref None and best_cover = ref 0 in
  for v = 0 to Tdmd.Instance.vertex_count instance - 1 do
    if not (List.mem v chosen) then begin
      let c = List.length (List.filter (fun f -> Array.mem v f.Flow.path) unserved) in
      if c > !best_cover then begin
        best := Some v;
        best_cover := c
      end
    end
  done;
  !best

(* [Cover_fixup.within]: keep the longest prefix of [chosen] with at
   most [budget] distinct vertices, grow it by best-cover picks, and on
   failure retry with ever-shorter prefixes; when none becomes feasible
   the first candidate is the answer.  Feasibility by full rescan. *)
let within instance ~chosen ~budget =
  let chosen = Array.of_list chosen in
  let distinct len =
    Array.to_list (Array.sub chosen 0 len)
    |> List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) []
    |> List.rev
  in
  let feasible sel = is_feasible instance (Placement.of_list sel) in
  let rec grow sel =
    if feasible sel || List.length sel >= budget then sel
    else
      let stragglers = unserved instance (Placement.of_list sel) in
      match best_cover_vertex instance sel stragglers with
      | None -> sel
      | Some v -> grow (sel @ [ v ])
  in
  let rec longest len =
    if len > 0 && List.length (distinct len) > budget then longest (len - 1) else len
  in
  let rec attempt kept_len first =
    let candidate = grow (distinct kept_len) in
    let first = Option.value first ~default:candidate in
    if feasible candidate then candidate
    else if kept_len = 0 then first
    else attempt (kept_len - 1) (Some first)
  in
  attempt (longest (Array.length chosen)) None

(* The churn engine's arrive/depart/rebalance rules over an instance
   rebuilt from the live flows for every decision, with no oracle:
   marginals are differences of [Bandwidth.diminished_volume] scans,
   unserved counts come from [Allocation.unserved], and the repair is
   [within] above.  [Tdmd.Incremental] must take the same decisions. *)
module Churn = struct
  type t = {
    graph : Tdmd_graph.Digraph.t;
    lambda : float;
    k : int;
    migration_budget : int;
    mutable flows : Flow.t list; (* arrival order *)
    mutable placed : int list; (* selection order *)
    mutable moves : int;
    mutable rebalances : int;
    mutable rebalance_moves : int;
  }

  let create ~migration_budget ~graph ~lambda ~k =
    {
      graph;
      lambda;
      k;
      migration_budget;
      flows = [];
      placed = [];
      moves = 0;
      rebalances = 0;
      rebalance_moves = 0;
    }

  let instance t = Tdmd.Instance.make ~graph:t.graph ~flows:t.flows ~lambda:t.lambda
  let placement t = Placement.of_list t.placed
  let bandwidth t = Tdmd.Bandwidth.total (instance t) (placement t)
  let feasible t = is_feasible (instance t) (placement t)
  let dim inst placed = Tdmd.Bandwidth.diminished_volume inst (Placement.of_list placed)

  let unserved_count inst placed =
    List.length (Tdmd.Allocation.unserved inst (Placement.of_list placed))

  let marginal inst placed v =
    if List.mem v placed then 0 else dim inst (placed @ [ v ]) - dim inst placed

  (* Highest strictly positive marginal, lowest vertex on ties. *)
  let best_marginal inst placed =
    let best = ref None and best_gain = ref 0 in
    for v = 0 to Tdmd.Instance.vertex_count inst - 1 do
      let g = marginal inst placed v in
      if g > !best_gain then begin
        best := Some v;
        best_gain := g
      end
    done;
    !best

  let set_placed t placed =
    let changed a b = List.length (List.filter (fun v -> not (List.mem v b)) a) in
    t.moves <- t.moves + changed placed t.placed + changed t.placed placed;
    t.placed <- placed

  let rebalance ?budget t =
    let budget = Option.value budget ~default:t.migration_budget in
    let inst = instance t in
    let spent = ref 0 in
    let adding = ref true in
    while !adding && List.length t.placed < t.k && !spent < budget do
      match best_marginal inst t.placed with
      | Some v ->
        set_placed t (t.placed @ [ v ]);
        incr spent
      | None -> adding := false
    done;
    (* Best strictly-improving swap that does not raise the unserved
       count; the earliest-placed box wins ties. *)
    let swapping = ref true in
    while !swapping && !spent + 2 <= budget do
      let dim0 = dim inst t.placed and uns0 = unserved_count inst t.placed in
      let best = ref None in
      List.iter
        (fun u ->
          let without = List.filter (fun w -> w <> u) t.placed in
          match best_marginal inst without with
          | Some v ->
            let after = without @ [ v ] in
            let net = dim inst after - dim0 in
            if unserved_count inst after <= uns0 && net > 0 then begin
              match !best with
              | Some (bn, _) when bn >= net -> ()
              | _ -> best := Some (net, after)
            end
          | None -> ())
        t.placed;
      match !best with
      | Some (_, after) ->
        set_placed t after;
        spent := !spent + 2
      | None -> swapping := false
    done;
    t.rebalances <- t.rebalances + 1;
    t.rebalance_moves <- t.rebalance_moves + !spent;
    !spent

  let auto_rebalance t = if t.migration_budget > 0 then ignore (rebalance t)

  (* The highest-marginal on-path vertex (first maximum in path order,
     deployed vertices at zero), skipped when it is already deployed;
     then the repair. *)
  let arrive t f =
    t.flows <- t.flows @ [ f ];
    let inst = instance t in
    if not (is_feasible inst (placement t)) then begin
      let chosen =
        if List.length t.placed < t.k then begin
          let path = f.Flow.path in
          let best = ref path.(0) and best_gain = ref (marginal inst t.placed path.(0)) in
          Array.iter
            (fun v ->
              let g = marginal inst t.placed v in
              if g > !best_gain then begin
                best := v;
                best_gain := g
              end)
            path;
          if List.mem !best t.placed then t.placed else t.placed @ [ !best ]
        end
        else t.placed
      in
      set_placed t (within inst ~chosen ~budget:t.k)
    end;
    auto_rebalance t

  (* Prune boxes that serve no flow, spend one freed slot on the best
     marginal, then repair. *)
  let depart t id =
    t.flows <- List.filter (fun f -> f.Flow.id <> id) t.flows;
    let inst = instance t in
    let servers =
      Array.to_list (Tdmd.Allocation.all inst (placement t))
      |> List.filter_map (function
           | Allocation.Served_at { vertex; _ } -> Some vertex
           | Allocation.Unserved -> None)
    in
    let useful = List.filter (fun v -> List.mem v servers) t.placed in
    if List.length useful < List.length t.placed then set_placed t useful;
    (if List.length t.placed < t.k then
       match best_marginal inst t.placed with
       | Some v -> set_placed t (t.placed @ [ v ])
       | None -> ());
    if not (is_feasible inst (placement t)) then
      set_placed t (within inst ~chosen:t.placed ~budget:t.k);
    auto_rebalance t
end

(* The objective as a value-only submodular oracle: every query is a
   from-scratch [Bandwidth.diminished_volume] scan. *)
let oracle_naive instance =
  Tdmd_submod.Submodular.make
    ~ground:(Tdmd.Instance.vertex_count instance)
    ~value:(fun vs ->
      float_of_int (Tdmd.Bandwidth.diminished_volume instance (Placement.of_list vs)))
    ()

(* GTP (or CELF, by [select]) over [oracle_naive], repaired by [within]. *)
let gtp select ~budget instance =
  let sel = select ~stop:(fun _ -> false) ~k:budget (oracle_naive instance) in
  Placement.of_list (within instance ~chosen:sel.Tdmd_submod.Submodular.chosen ~budget)

(* HAT's merge penalty Δb(i,j): replace the boxes on [i] and [j] by one
   on their LCA and rescan, in integer units scaled by (1−λ). *)
let merge_delta general lca placement i j =
  let a = Tdmd_tree.Lca.query lca i j in
  let merged = Placement.add (Placement.remove (Placement.remove placement i) j) a in
  (1.0 -. general.Tdmd.Instance.lambda)
  *. float_of_int
       (Tdmd.Bandwidth.diminished_volume general placement
       - Tdmd.Bandwidth.diminished_volume general merged)

let delta_b inst =
  merge_delta (Tdmd.Instance.Tree.to_general inst)
    (Tdmd_tree.Lca.build inst.Tdmd.Instance.Tree.tree)

(* HAT (paper Alg. 2) with every Δb from [merge_delta]: the same heap,
   round stamps and tie-breaking as [Hat.run].  Returns the placement
   and the number of merges. *)
let hat ~k inst =
  let tree = inst.Tdmd.Instance.Tree.tree in
  let general = Tdmd.Instance.Tree.to_general inst in
  let lca = Tdmd_tree.Lca.build tree in
  let placement = ref (Placement.of_list (Tdmd_tree.Rooted_tree.leaves tree)) in
  let round = ref 0 and merges = ref 0 in
  let cmp (d1, i1, j1, _) (d2, i2, j2, _) = compare (d1, i1, j1) (d2, i2, j2) in
  let heap = Tdmd_heap.Binary_heap.create ~cmp () in
  let push_pair i j =
    let i, j = if i < j then (i, j) else (j, i) in
    Tdmd_heap.Binary_heap.push heap (merge_delta general lca !placement i j, i, j, !round)
  in
  let push_all_pairs () =
    let vs = Array.of_list (Placement.to_list !placement) in
    Array.iteri
      (fun a va -> Array.iteri (fun b vb -> if b > a then push_pair va vb) vs)
      vs
  in
  push_all_pairs ();
  while Placement.size !placement > max k 1 do
    match Tdmd_heap.Binary_heap.pop heap with
    | None -> push_all_pairs ()
    | Some (stored, i, j, stamp) ->
      if Placement.mem !placement i && Placement.mem !placement j then begin
        let fresh =
          if stamp = !round then stored else merge_delta general lca !placement i j
        in
        let next_is_worse =
          match Tdmd_heap.Binary_heap.peek heap with
          | None -> true
          | Some (d, _, _, _) -> fresh <= d
        in
        if stamp = !round || next_is_worse then begin
          let a = Tdmd_tree.Lca.query lca i j in
          placement :=
            Placement.add (Placement.remove (Placement.remove !placement i) j) a;
          incr round;
          incr merges;
          List.iter (fun v -> if v <> a then push_pair v a) (Placement.to_list !placement)
        end
        else Tdmd_heap.Binary_heap.push heap (fresh, i, j, !round)
      end
  done;
  (!placement, !merges)
