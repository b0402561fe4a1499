(* Reference implementations for the differential tests: the
   straightforward forms the library's flat versions replaced, kept
   verbatim so every optimised path can be checked against them.

   - the objective scans ([serve], [all], [total], [diminished_volume],
     [is_feasible], [unserved]) test membership with [Placement.mem], a
     list scan per path vertex;
   - [flow_consumption] is Eq. 1 for one flow, and [decrement],
     [marginal] and [max_decrement] are Defs. 1-2 and Lemma 1 in floats,
     the forms the paper's worked numbers are stated in;
   - [refine] is the probe-and-undo local search: every candidate is
     applied to the oracle with [add], scored, and rolled back with
     [undo], and the oracle is rebuilt after every accepted move;
   - [scan_moves] and [best_replacement] are the edit-based forms of the
     oracle's two swap queries: retire the box with [remove], read the
     ledger, and [undo];
   - [within] (the cover fix-up), [oracle_naive] with [gtp] over it,
     and HAT's [delta_b] with the [hat] merge loop answer every query
     by a from-scratch scan;
   - [greedy] and [lazy_greedy] (CELF) are the value-only forms of
     GTP's two loops, over any [set_function]; [check_monotone] and
     [check_submodular] test Theorem 2 on one;
   - [dp_binary] is Sec. 5.1's binary-tree DP (Eqs. 7-8) as the paper
     states it, the reference for [Dp]'s child-by-child merge;
   - [Churn] is the churn engine with every decision taken over an
     instance rebuilt from the live flows. *)

module Rng = Tdmd_prelude.Rng
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

let diminished_volume instance placement =
  Array.fold_left
    (fun acc f ->
      match serve placement f with
      | Allocation.Unserved -> acc
      | Allocation.Served_at { l; _ } -> acc + (f.Flow.rate * (Flow.hop_count f - l)))
    0 instance.Tdmd.Instance.flows

let total instance placement =
  Tdmd.Bandwidth.render ~lambda:instance.Tdmd.Instance.lambda
    ~total:(Tdmd.Instance.total_path_volume instance)
    (diminished_volume instance placement)

(* b(f) = r_f·l + λ·r_f·(|p_f| − l) for a flow served at offset l, and
   r_f·|p_f| unserved. *)
let flow_consumption ~lambda f serving =
  let r = float_of_int f.Flow.rate and hops = float_of_int (Flow.hop_count f) in
  match serving with
  | Allocation.Unserved -> r *. hops
  | Allocation.Served_at { l; _ } ->
    let l = float_of_int l in
    (r *. l) +. (lambda *. r *. (hops -. l))

(* d(P) = (1−λ)·D(P); d_P({v}) = d(P ∪ {v}) − d(P); max d = (1−λ)·U. *)
let decrement instance placement =
  (1.0 -. instance.Tdmd.Instance.lambda)
  *. float_of_int (diminished_volume instance placement)

let marginal instance placement v =
  decrement instance (Placement.add placement v) -. decrement instance placement

let max_decrement instance =
  (1.0 -. instance.Tdmd.Instance.lambda)
  *. float_of_int (Tdmd.Instance.total_path_volume instance)

let refine ?(max_rounds = 1000) ~k instance placement =
  if not (is_feasible instance placement) then
    invalid_arg "Local_search.refine: infeasible starting deployment";
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.span_open tel "local-search";
  let n = Tdmd.Instance.vertex_count instance in
  let diminishes = Tdmd.Bandwidth.diminishes instance.Tdmd.Instance.lambda in
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
          let d = Inc_oracle.diminished_volume t in
          match !best with
          | Some (_, b) when b >= d -> ()
          | _ -> if diminishes && d > current then best := Some (rebuild (), d)
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
      | Some (next, d) ->
        round (Inc_oracle.of_list instance (Placement.to_list next)) next d
          (swaps + 1) (rounds_left - 1)
    end
  in
  let t0 = Inc_oracle.of_list instance (Placement.to_list placement) in
  let placement, volume, swaps =
    round t0 placement (Inc_oracle.diminished_volume t0) 0 max_rounds
  in
  Tdmd_obs.Telemetry.span_close tel;
  Tdmd_obs.Telemetry.count tel "swaps" swaps;
  Tdmd_obs.Telemetry.count tel "evaluations" !evaluations;
  Tdmd_obs.Telemetry.count tel "oracle_ns" (Int64.to_int !oracle_ns);
  Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
  Tdmd.Solver_intf.outcome ~lambda:instance.Tdmd.Instance.lambda
    ~total:(Tdmd.Instance.total_path_volume instance) ~placement ~volume ~feasible:true
    ~telemetry:tel

(* [Inc_oracle.scan_moves] by editing: retire [outgoing], score every
   undeployed vertex other than it in increasing order off the ledger
   (the first strictly better move wins, none at λ = 1), and put the box
   back.  [t] is an oracle over [instance]. *)
let scan_moves instance t ~outgoing ~current m =
  if outgoing >= 0 && not (Inc_oracle.mem t outgoing) then
    invalid_arg "Inc_oracle.scan_moves: outgoing vertex not deployed";
  if outgoing >= 0 then Inc_oracle.remove t outgoing;
  let unserved = Inc_oracle.unserved_count t and dim = Inc_oracle.diminished_volume t in
  let diminishes = Tdmd.Bandwidth.diminishes instance.Tdmd.Instance.lambda in
  for v = 0 to Tdmd.Instance.vertex_count instance - 1 do
    if (not (Inc_oracle.mem t v)) && v <> outgoing then begin
      m.Inc_oracle.probes <- m.Inc_oracle.probes + 1;
      if unserved = 0 || Inc_oracle.newly_served t v = unserved then begin
        m.Inc_oracle.evaluations <- m.Inc_oracle.evaluations + 1;
        let d = dim + Inc_oracle.marginal_volume t v in
        if diminishes && (m.Inc_oracle.incoming < 0 || d > m.Inc_oracle.after) && d > current
        then begin
          m.Inc_oracle.outgoing <- outgoing;
          m.Inc_oracle.incoming <- v;
          m.Inc_oracle.after <- d
        end
      end
    end
  done;
  if outgoing >= 0 then Inc_oracle.undo t

(* [Inc_oracle.best_replacement] by editing: the churn rebalancer's
   remove / argmax / undo. *)
let best_replacement t u =
  if not (Inc_oracle.mem t u) then
    invalid_arg "Inc_oracle.best_replacement: vertex not deployed";
  Inc_oracle.remove t u;
  let incoming, gain, served =
    match Inc_oracle.argmax t Inc_oracle.Marginal_volume with
    | Some v -> (v, Inc_oracle.marginal_volume t v, Inc_oracle.newly_served t v)
    | None -> (-1, 0, 0)
  in
  let r =
    {
      Inc_oracle.volume = Inc_oracle.diminished_volume t;
      unserved = Inc_oracle.unserved_count t;
      incoming;
      gain;
      served;
    }
  in
  Inc_oracle.undo t;
  r

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

(* Monotone submodular maximisation under a cardinality constraint,
   value-only: the ground set is [0 .. ground-1], and every marginal is
   the difference of two [value] calls. *)
type set_function = { ground : int; value : int list -> float }

type selection = {
  chosen : int list; (* in selection order *)
  gains : float list; (* marginal gain of each selection *)
  oracle_calls : int;
}

(* Plain adaptive greedy: add the element with the largest marginal gain
   (lowest index wins ties) until [k] are chosen, no gain is positive,
   or [stop chosen] holds (checked before each round). *)
let greedy ?(stop = fun _ -> false) ~k f =
  let calls = ref 0 in
  let value s =
    incr calls;
    f.value s
  in
  let rec round chosen gains base =
    if List.length chosen >= k || stop (List.rev chosen) then
      { chosen = List.rev chosen; gains = List.rev gains; oracle_calls = !calls }
    else begin
      (* Exact comparison, lowest index wins ties — identical tie
         handling to [lazy_greedy], so the two return the same set. *)
      let best = ref (-1) and best_gain = ref 1e-12 in
      for v = 0 to f.ground - 1 do
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
      else round (!best :: chosen) (!best_gain :: gains) (base +. !best_gain)
    end
  in
  round [] [] (value [])

(* CELF's heap order: gain descending, lower element on ties. *)
let by_gain ((g1 : float), (v1 : int)) ((g2 : float), (v2 : int)) =
  if g1 = g2 then compare v1 v2 else compare g2 g1

(* CELF lazy evaluation (Leskovec et al., KDD 2007): the same set as
   [greedy] on a submodular [f], typically with far fewer calls. *)
let lazy_greedy ?(stop = fun _ -> false) ~k f =
  let calls = ref 0 in
  let value s =
    incr calls;
    f.value s
  in
  let base = ref (value []) in
  (* Max-heap by cached gain; stale entries are re-evaluated on pop. *)
  let heap = Tdmd_heap.Binary_heap.create ~cmp:by_gain () in
  for v = 0 to f.ground - 1 do
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

let random_subset rng n ~avoid =
  let s = ref [] in
  for v = 0 to n - 1 do
    if v <> avoid && Rng.bool rng then s := v :: !s
  done;
  !s

(* Randomised monotonicity check: f(S) <= f(S + {v}). *)
let check_monotone rng ~trials f =
  let rec go t =
    if t = 0 then Ok ()
    else begin
      let v = Rng.int rng f.ground in
      let s = random_subset rng f.ground ~avoid:v in
      let fs = f.value s and fsv = f.value (v :: s) in
      if fsv +. 1e-9 < fs then
        Error
          (Printf.sprintf "monotonicity violated: f(S)=%g > f(S+{%d})=%g" fs v fsv)
      else go (t - 1)
    end
  in
  go trials

(* Randomised diminishing-returns check:
   f(S + {v}) - f(S) >= f(S' + {v}) - f(S') for sampled S within S'. *)
let check_submodular rng ~trials f =
  let rec go t =
    if t = 0 then Ok ()
    else begin
      let v = Rng.int rng f.ground in
      let small = random_subset rng f.ground ~avoid:v in
      let extra = random_subset rng f.ground ~avoid:v in
      let large = List.sort_uniq compare (small @ extra) in
      let gain s = f.value (v :: s) -. f.value s in
      if gain small +. 1e-9 < gain large then
        Error
          (Printf.sprintf
             "submodularity violated at element %d: gain(small)=%g < gain(large)=%g" v
             (gain small) (gain large))
      else go (t - 1)
    end
  in
  go trials

(* The objective as a value-only set function: every query is a
   from-scratch [Bandwidth.diminished_volume] scan. *)
let oracle_naive instance =
  {
    ground = Tdmd.Instance.vertex_count instance;
    value =
      (fun vs ->
        float_of_int (Tdmd.Bandwidth.diminished_volume instance (Placement.of_list vs)));
  }

(* GTP (or CELF, by [select]) over [oracle_naive], repaired by [within]:
   the placement and the marginals read, which are the set-function
   calls less the one read of the empty set the value-only loops start
   from. *)
let gtp select ~budget instance =
  let sel = select ~stop:(fun _ -> false) ~k:budget (oracle_naive instance) in
  (Placement.of_list (within instance ~chosen:sel.chosen ~budget), sel.oracle_calls - 1)

(* ΔD of HAT's merge of [i] and [j]: replace their boxes by one on
   their LCA and rescan. *)
let merge_volume general lca placement i j =
  let a = Tdmd_tree.Lca.query lca i j in
  let merged = Placement.add (Placement.remove (Placement.remove placement i) j) a in
  Tdmd.Bandwidth.diminished_volume general placement
  - Tdmd.Bandwidth.diminished_volume general merged

(* The paper's merge penalty Δb(i,j) = (1−λ)·ΔD. *)
let delta_b inst =
  let general = Tdmd.Instance.Tree.to_general inst in
  let lca = Tdmd_tree.Lca.build inst.Tdmd.Instance.Tree.tree in
  fun placement i j ->
    (1.0 -. general.Tdmd.Instance.lambda)
    *. float_of_int (merge_volume general lca placement i j)

(* HAT (paper Alg. 2) keyed on every ΔD from [merge_volume] (0 at
   λ = 1): the same heap, round stamps and tie-breaking as [Hat.run].
   Returns the placement and the number of merges. *)
let hat ~k inst =
  let tree = inst.Tdmd.Instance.Tree.tree in
  let general = Tdmd.Instance.Tree.to_general inst in
  let lca = Tdmd_tree.Lca.build tree in
  let merge_delta placement i j =
    if Tdmd.Bandwidth.diminishes general.Tdmd.Instance.lambda then
      merge_volume general lca placement i j
    else 0
  in
  let placement = ref (Placement.of_list (Tdmd_tree.Rooted_tree.leaves tree)) in
  let round = ref 0 and merges = ref 0 in
  let cmp (d1, i1, j1, _) (d2, i2, j2, _) = compare (d1, i1, j1) (d2, i2, j2) in
  let heap = Tdmd_heap.Binary_heap.create ~cmp () in
  let push_pair i j =
    let i, j = if i < j then (i, j) else (j, i) in
    Tdmd_heap.Binary_heap.push heap (merge_delta !placement i j, i, j, !round)
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
          if stamp = !round then stored else merge_delta !placement i j
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

(* The paper's binary-tree DP, Eqs. 7-10 transcribed verbatim: the
   two-subtree form
   [F(v,k) = min { min_p F(v_l,p) + F(v_r,k-p) + λ·Σb(f) ,
                   min_q P(v_l,q,b_l) + P(v_r,k-1-q,b_r) + uplinks } ]
   over trees whose internal vertices have one or two children (a
   missing subtree contributes the empty table).  [Dp] generalises it
   by merging children one at a time; this form is its differential
   reference on binary trees, down to the ["states"] count.
   @raise Invalid_argument if some vertex has more than two children. *)
module Dp_binary = struct
  open Tdmd
  module Rt = Tdmd_tree.Rooted_tree

  (* Per-vertex table with the same semantics as Dp: q.(kappa).(b) is the
     most volume processed on edges strictly inside T_v with exactly kappa
     boxes and exactly b processed rate (−1: unreachable; every reachable
     state holds 0 at λ = 1); choice.(kappa).(b) records the decision for
     traceback. *)
  type cell_choice =
    | Leaf_box                      (* box on this leaf *)
    | Leaf_none
    | Split of { box : bool; kl : int; bl : int }
        (* left subtree gets (kl, bl); right gets the rest (after the
           box's budget unit when [box]) *)

  type node_table = {
    q : int array array;
    choice : cell_choice option array array;
  }

  let solve ~k inst =
    let tel = Tdmd_obs.Telemetry.create () in
    Tdmd_obs.Telemetry.count tel "budget" k;
    Tdmd_obs.Telemetry.span_open tel "dp-binary";
    let tree = inst.Instance.Tree.tree in
    let lambda = inst.Instance.Tree.lambda in
    let diminishes = Bandwidth.diminishes lambda in
    let n = Rt.size tree in
    let b_sub = Instance.Tree.subtree_rate inst in
    (* The uplinks carrying processed rates bl and br add bl + br
       diminished edge-units; at λ = 1 none counts. *)
    let volume ql qr bl br = ql + qr + if diminishes then bl + br else 0 in
    let finish placement volume feasible =
      Tdmd_obs.Telemetry.span_close tel;
      Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
      (* At λ = 1 the tables count no edge, so a scan measures D. *)
      let volume =
        if diminishes then volume
        else Bandwidth.diminished_volume (Instance.Tree.to_general inst) placement
      in
      (* U: each edge v → parent carries R_v. *)
      let total = Array.fold_left ( + ) 0 b_sub - b_sub.(Rt.root tree) in
      Solver_intf.outcome ~lambda ~total ~placement ~volume ~feasible ~telemetry:tel
    in
    let subtree_size = Array.make n 1 in
    List.iter
      (fun v ->
        let p = Rt.parent tree v in
        if p >= 0 then subtree_size.(p) <- subtree_size.(p) + subtree_size.(v))
      (Rt.postorder tree);
    let k_cap = Array.map (fun s -> min k s) subtree_size in
    let tables = Array.make n None in
    (* The empty subtree: only (0 boxes, 0 processed) at cost 0. *)
    let empty_table = { q = [| [| 0 |] |]; choice = [| [| Some Leaf_none |] |] } in
    let get_table v = Option.get tables.(v) in
    List.iter
      (fun v ->
        let kv = k_cap.(v) and bv = b_sub.(v) in
        let q = Array.make_matrix (kv + 1) (bv + 1) (-1) in
        let choice = Array.make_matrix (kv + 1) (bv + 1) None in
        (match Rt.children tree v with
        | [] ->
          (* Eqs. 9-10: a leaf has no edge inside; a box forces its flows
             processed, no box leaves them for an ancestor. *)
          q.(0).(0) <- 0;
          choice.(0).(0) <- Some Leaf_none;
          if kv >= 1 then begin
            q.(1).(bv) <- 0;
            choice.(1).(bv) <- Some Leaf_box
          end
        | children ->
          let left, right, bl_max, br_max, kl_max, kr_max =
            match children with
            | [ l ] -> (get_table l, empty_table, b_sub.(l), 0, k_cap.(l), 0)
            | [ l; r ] ->
              (get_table l, get_table r, b_sub.(l), b_sub.(r), k_cap.(l), k_cap.(r))
            | _ -> invalid_arg "Dp_binary.solve: vertex has more than two children"
          in
          (* Eq. 8 (no box at v): P(v,k,b) = min_p P(l,p,bl) + P(r,k-p,br)
             + uplinks, with b = bl + br, an uplink of total rate R carrying
             b processed costing λ·b + (R − b): here the most processed
             volume.  Eq. 7's box case places one on v, jumping b to R_v. *)
          for kl = 0 to kl_max do
            for bl = 0 to bl_max do
              let ql = left.q.(kl).(bl) in
              if ql >= 0 then
                for kr = 0 to min kr_max (kv - kl) do
                  for br = 0 to br_max do
                    let qr = right.q.(kr).(br) in
                    if qr >= 0 then begin
                      let d = volume ql qr bl br in
                      let kappa = kl + kr and b = bl + br in
                      if d > q.(kappa).(b) then begin
                        q.(kappa).(b) <- d;
                        choice.(kappa).(b) <- Some (Split { box = false; kl; bl })
                      end;
                      (* Box at v: same inside volume, one more budget
                         unit, everything through v processed. *)
                      if kappa + 1 <= kv && d > q.(kappa + 1).(bv) then begin
                        q.(kappa + 1).(bv) <- d;
                        choice.(kappa + 1).(bv) <- Some (Split { box = true; kl; bl })
                      end
                    end
                  done
                done
            done
          done);
        Tdmd_obs.Telemetry.count tel "states" (Array.length q * Array.length q.(0));
        tables.(v) <- Some { q; choice })
      (Rt.postorder tree);
    let root = Rt.root tree in
    if Array.length inst.Instance.Tree.flows = 0 then finish Placement.empty 0 true
    else begin
      let b_root = b_sub.(root) in
      let tbl = get_table root in
      let best = ref (-1) and best_kappa = ref (-1) in
      for kappa = 0 to min k k_cap.(root) do
        if tbl.q.(kappa).(b_root) > !best then begin
          best := tbl.q.(kappa).(b_root);
          best_kappa := kappa
        end
      done;
      if !best_kappa < 0 then finish Placement.empty 0 false
      else begin
        let acc = ref [] in
        let rec assign v kappa b =
          let tbl = get_table v in
          match Option.get tbl.choice.(kappa).(b) with
          | Leaf_none -> ()
          | Leaf_box -> acc := v :: !acc
          | Split { box; kl; bl } ->
            if box then acc := v :: !acc;
            let children = Rt.children tree v in
            let l = List.nth children 0 in
            assign l kl bl;
            (match children with
            | [ _; r ] ->
              let spent = kappa - kl - (if box then 1 else 0) in
              (* With a box at v, the recorded (kl, bl) describes the
                 children state, whose combined processed rate we must
                 recover: it is whatever the right table allowed. *)
              let br =
                if box then begin
                  (* Find the br that witnesses the stored volume. *)
                  let target = tbl.q.(kappa).(b) in
                  let ql = (get_table l).q.(kl).(bl) and right_tbl = get_table r in
                  let found = ref (-1) in
                  for cand = 0 to b_sub.(r) do
                    let qr = right_tbl.q.(spent).(cand) in
                    if !found < 0 && qr >= 0 && ql >= 0 && volume ql qr bl cand = target
                    then found := cand
                  done;
                  assert (!found >= 0);
                  !found
                end
                else b - bl
              in
              assign r spent br
            | _ -> assert (kappa - kl - (if box then 1 else 0) = 0))
        in
        assign root !best_kappa b_root;
        finish (Placement.of_list !acc) !best true
      end
    end
end

let dp_binary = Dp_binary.solve
