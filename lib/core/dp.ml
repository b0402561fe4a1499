module Rt = Tdmd_tree.Rooted_tree

(* The tables hold processed volume, the D counterpart of the paper's
   inside bandwidth: q.(v).(kappa).(b) is the most rate·edges carried
   diminished on the edges strictly inside T_v, so P(v, kappa, b) =
   inside.(v) − (1−λ)·q.(v).(kappa).(b); −1 marks an unreachable state.
   At λ = 1 no edge counts (see [build]), every reachable state holds 0,
   and each choice keeps the first state found. *)
type tables = {
  inst : Instance.Tree.t;
  b_sub : int array;               (* R_v: rate sourced in T_v *)
  inside : int array;              (* Σ R_c over the edges inside T_v *)
  k_cap : int array;               (* min (k_max, |T_v|) *)
  q : int array array array;       (* q.(v).(kappa).(b), exact kappa/b *)
  merge_choice : int array array array array;
      (* merge_choice.(v).(i).(kappa).(beta): packed (kappa_c, b_c) of
         the optimal split when merging the i-th child (1-based) *)
  box_beta : int array array;      (* argmax beta of m_final.(v).(kappa-1) *)
  box_val : int array array;       (* value of the box-at-v case *)
  children : int array array;
  states : int;
}

let pack stride kc bc = (kc * stride) + bc
let unpack stride packed = (packed / stride, packed mod stride)

let build ~k_max inst =
  if k_max < 0 then invalid_arg "Dp.build: negative k_max";
  let tree = inst.Instance.Tree.tree in
  let diminishes = Bandwidth.diminishes inst.Instance.Tree.lambda in
  let n = Rt.size tree in
  let b_sub = Instance.Tree.subtree_rate inst in
  let subtree_size = Array.make n 1 in
  let inside = Array.make n 0 in
  List.iter
    (fun v ->
      let pnt = Rt.parent tree v in
      if pnt >= 0 then begin
        subtree_size.(pnt) <- subtree_size.(pnt) + subtree_size.(v);
        inside.(pnt) <- inside.(pnt) + inside.(v) + b_sub.(v)
      end)
    (Rt.postorder tree);
  let k_cap = Array.map (fun s -> Int.min k_max s) subtree_size in
  let q = Array.make n [||] in
  let merge_choice = Array.make n [||] in
  let box_beta = Array.make n [||] in
  let box_val = Array.make n [||] in
  let children = Array.make n [||] in
  let states = ref 0 in
  List.iter
    (fun v ->
      let kv = k_cap.(v) and bv = b_sub.(v) in
      let cs = Array.of_list (Rt.children tree v) in
      children.(v) <- cs;
      let stride = bv + 1 in
      (* Sequential knapsack over children: m_prev.(kappa).(beta) is the
         most volume processed inside the first i child subtrees plus on
         their uplinks, using exactly kappa boxes and processing exactly
         beta. *)
      let m_prev = ref (Array.make_matrix (kv + 1) (bv + 1) (-1)) in
      !m_prev.(0).(0) <- 0;
      let choices = Array.make (Array.length cs + 1) [||] in
      Array.iteri
        (fun idx c ->
          let i = idx + 1 in
          let m_next = Array.make_matrix (kv + 1) (bv + 1) (-1) in
          let choice = Array.make_matrix (kv + 1) (bv + 1) (-1) in
          let kc_max = k_cap.(c) and bc_max = b_sub.(c) in
          for kappa = 0 to kv do
            for beta = 0 to bv do
              let prev = !m_prev.(kappa).(beta) in
              if prev >= 0 then
                for kc = 0 to Int.min (kv - kappa) kc_max do
                  let qc_row = q.(c).(kc) in
                  for bc = 0 to Int.min (bv - beta) bc_max do
                    let qc = qc_row.(bc) in
                    if qc >= 0 then begin
                      (* Uplink c -> v: the [bc] processed rate crosses
                         diminished, the rest at full rate. *)
                      let cand = prev + qc + if diminishes then bc else 0 in
                      let k' = kappa + kc and b' = beta + bc in
                      if cand > m_next.(k').(b') then begin
                        m_next.(k').(b') <- cand;
                        choice.(k').(b') <- pack stride kc bc
                      end
                    end
                  done
                done
            done
          done;
          choices.(i) <- choice;
          m_prev := m_next)
        cs;
      merge_choice.(v) <- choices;
      (* Box-at-v case: one budget unit goes to v; every flow through v
         is then processed, so b jumps to R_v regardless of beta. *)
      let bb = Array.make (kv + 1) (-1) in
      let bvl = Array.make (kv + 1) (-1) in
      for kappa = 1 to kv do
        for beta = 0 to bv do
          let c = !m_prev.(kappa - 1).(beta) in
          if c > bvl.(kappa) then begin
            bvl.(kappa) <- c;
            bb.(kappa) <- beta
          end
        done
      done;
      box_beta.(v) <- bb;
      box_val.(v) <- bvl;
      let tbl = !m_prev in
      for kappa = 1 to kv do
        if bvl.(kappa) > tbl.(kappa).(bv) then tbl.(kappa).(bv) <- bvl.(kappa)
      done;
      q.(v) <- tbl;
      states := !states + ((kv + 1) * (bv + 1)))
    (Rt.postorder tree);
  {
    inst;
    b_sub;
    inside;
    k_cap;
    q;
    merge_choice;
    box_beta;
    box_val;
    children;
    states = !states;
  }

let p_value t ~v ~k ~b =
  let best = ref (-1) in
  if b >= 0 && b <= t.b_sub.(v) then
    for kappa = 0 to Int.min k t.k_cap.(v) do
      best := Int.max !best t.q.(v).(kappa).(b)
    done;
  if !best < 0 then infinity
  else Bandwidth.render ~lambda:t.inst.Instance.Tree.lambda ~total:t.inside.(v) !best

let f_value t ~v ~k = p_value t ~v ~k ~b:(t.b_sub.(v))

(* Traceback: walk the stored choices from (root, kappa*, R_root) down,
   collecting box vertices. *)
let traceback t ~kappa_root =
  let tree = t.inst.Instance.Tree.tree in
  let root = Rt.root tree in
  let acc = ref [] in
  let rec assign v kappa b =
    let bv = t.b_sub.(v) in
    let value = t.q.(v).(kappa).(b) in
    assert (value >= 0);
    let use_box = kappa >= 1 && b = bv && t.box_val.(v).(kappa) = value in
    let kappa, b =
      if use_box then begin
        acc := v :: !acc;
        (kappa - 1, t.box_beta.(v).(kappa))
      end
      else (kappa, b)
    in
    (* Undo the child merges right-to-left. *)
    let stride = bv + 1 in
    let kappa = ref kappa and b = ref b in
    for i = Array.length t.children.(v) downto 1 do
      let packed = t.merge_choice.(v).(i).(!kappa).(!b) in
      assert (packed >= 0);
      let kc, bc = unpack stride packed in
      let c = t.children.(v).(i - 1) in
      assign c kc bc;
      kappa := !kappa - kc;
      b := !b - bc
    done;
    assert (!kappa = 0 && !b = 0)
  in
  assign root kappa_root t.b_sub.(root);
  Placement.of_list !acc

let solve ~k inst =
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.with_span tel "dp" (fun () ->
  let t = Tdmd_obs.Telemetry.with_span tel "build" (fun () -> build ~k_max:k inst) in
  let root = Rt.root inst.Instance.Tree.tree in
  let b_root = t.b_sub.(root) in
  let best = ref (-1) and best_kappa = ref (-1) in
  if Array.length inst.Instance.Tree.flows > 0 then
    for kappa = 0 to Int.min k t.k_cap.(root) do
      if t.q.(root).(kappa).(b_root) > !best then begin
        best := t.q.(root).(kappa).(b_root);
        best_kappa := kappa
      end
    done;
  let placement =
    if !best_kappa < 0 then Placement.empty
    else
      Tdmd_obs.Telemetry.with_span tel "traceback" (fun () ->
          traceback t ~kappa_root:!best_kappa)
  in
  (* At λ = 1 the tables count no edge, so a scan measures D. *)
  let lambda = inst.Instance.Tree.lambda in
  let volume =
    if !best_kappa < 0 then 0
    else if Bandwidth.diminishes lambda then !best
    else Bandwidth.diminished_volume (Instance.Tree.to_general inst) placement
  in
  Tdmd_obs.Telemetry.count tel "states" t.states;
  Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
  Solver_intf.outcome ~lambda ~total:t.inside.(root) ~placement ~volume
    ~feasible:(!best_kappa >= 0 || Array.length inst.Instance.Tree.flows = 0)
    ~telemetry:tel)
