module Rt = Tdmd_tree.Rooted_tree

type tables = {
  inst : Instance.Tree.t;
  b_sub : int array;               (* R_v: rate sourced in T_v *)
  k_cap : int array;               (* min (k_max, |T_v|) *)
  p : float array array array;     (* p.(v).(kappa).(b), exact kappa/b *)
  merge_choice : int array array array array;
      (* merge_choice.(v).(i).(kappa).(beta): packed (kappa_c, b_c) of
         the optimal split when merging the i-th child (1-based) *)
  box_beta : int array array;      (* argmin beta of m_final.(v).(kappa-1) *)
  box_val : float array array;     (* value of the box-at-v case *)
  children : int array array;
  states : int;
}

let pack stride kc bc = (kc * stride) + bc
let unpack stride packed = (packed / stride, packed mod stride)

let build ~k_max inst =
  if k_max < 0 then invalid_arg "Dp.build: negative k_max";
  let tree = inst.Instance.Tree.tree in
  let lambda = inst.Instance.Tree.lambda in
  let n = Rt.size tree in
  let b_sub = Instance.Tree.subtree_rate inst in
  let subtree_size = Array.make n 1 in
  List.iter
    (fun v ->
      let pnt = Rt.parent tree v in
      if pnt >= 0 then subtree_size.(pnt) <- subtree_size.(pnt) + subtree_size.(v))
    (Rt.postorder tree);
  let k_cap = Array.map (fun s -> min k_max s) subtree_size in
  let p = Array.make n [||] in
  let merge_choice = Array.make n [||] in
  let box_beta = Array.make n [||] in
  let box_val = Array.make n [||] in
  let children = Array.make n [||] in
  let states = ref 0 in
  let infty = infinity in
  List.iter
    (fun v ->
      let kv = k_cap.(v) and bv = b_sub.(v) in
      let cs = Array.of_list (Rt.children tree v) in
      children.(v) <- cs;
      let stride = bv + 1 in
      (* Sequential knapsack over children: m_prev.(kappa).(beta) is the
         best inside-cost of the first i child subtrees plus their
         uplinks, using exactly kappa boxes and processing exactly beta. *)
      let m_prev = ref (Array.make_matrix (kv + 1) (bv + 1) infty) in
      !m_prev.(0).(0) <- 0.0;
      let choices = Array.make (Array.length cs + 1) [||] in
      Array.iteri
        (fun idx c ->
          let i = idx + 1 in
          let m_next = Array.make_matrix (kv + 1) (bv + 1) infty in
          let choice = Array.make_matrix (kv + 1) (bv + 1) (-1) in
          let kc_max = k_cap.(c) and bc_max = b_sub.(c) in
          for kappa = 0 to kv do
            for beta = 0 to bv do
              let prev = !m_prev.(kappa).(beta) in
              if prev < infty then
                for kc = 0 to min (kv - kappa) kc_max do
                  let pc_row = p.(c).(kc) in
                  for bc = 0 to min (bv - beta) bc_max do
                    let pc = pc_row.(bc) in
                    if pc < infty then begin
                      (* Uplink c -> v: processed flows cross at lambda
                         times their rate, the rest at full rate. *)
                      let uplink =
                        float_of_int bc_max -. ((1.0 -. lambda) *. float_of_int bc)
                      in
                      let cand = prev +. pc +. uplink in
                      let k' = kappa + kc and b' = beta + bc in
                      if cand < m_next.(k').(b') then begin
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
      let bvl = Array.make (kv + 1) infty in
      for kappa = 1 to kv do
        for beta = 0 to bv do
          let c = !m_prev.(kappa - 1).(beta) in
          if c < bvl.(kappa) then begin
            bvl.(kappa) <- c;
            bb.(kappa) <- beta
          end
        done
      done;
      box_beta.(v) <- bb;
      box_val.(v) <- bvl;
      let tbl = Array.make_matrix (kv + 1) (bv + 1) infty in
      for kappa = 0 to kv do
        for b = 0 to bv do
          tbl.(kappa).(b) <- !m_prev.(kappa).(b)
        done;
        if kappa >= 1 && bvl.(kappa) < tbl.(kappa).(bv) then
          tbl.(kappa).(bv) <- bvl.(kappa)
      done;
      p.(v) <- tbl;
      states := !states + ((kv + 1) * (bv + 1)))
    (Rt.postorder tree);
  {
    inst;
    b_sub;
    k_cap;
    p;
    merge_choice;
    box_beta;
    box_val;
    children;
    states = !states;
  }

let p_exact t ~v ~kappa ~b =
  if kappa < 0 || kappa > t.k_cap.(v) || b < 0 || b > t.b_sub.(v) then infinity
  else t.p.(v).(kappa).(b)

let p_value t ~v ~k ~b =
  let best = ref infinity in
  for kappa = 0 to min k t.k_cap.(v) do
    let x = p_exact t ~v ~kappa ~b in
    if x < !best then best := x
  done;
  !best

let f_value t ~v ~k = p_value t ~v ~k ~b:(t.b_sub.(v))

(* Traceback: walk the stored choices from (root, kappa*, R_root) down,
   collecting box vertices. *)
let traceback t ~kappa_root =
  let tree = t.inst.Instance.Tree.tree in
  let root = Rt.root tree in
  let acc = ref [] in
  let rec assign v kappa b =
    let bv = t.b_sub.(v) in
    let value = t.p.(v).(kappa).(b) in
    assert (value < infinity);
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
  let finish (t : tables) placement bandwidth feasible =
    Tdmd_obs.Telemetry.count tel "states" t.states;
    Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
    Solver_intf.outcome ~placement ~bandwidth ~feasible ~telemetry:tel
  in
  Tdmd_obs.Telemetry.with_span tel "dp" (fun () ->
  let t = Tdmd_obs.Telemetry.with_span tel "build" (fun () -> build ~k_max:k inst) in
  let tree = inst.Instance.Tree.tree in
  let root = Rt.root tree in
  let b_root = t.b_sub.(root) in
  if Array.length inst.Instance.Tree.flows = 0 then finish t Placement.empty 0.0 true
  else begin
    let best = ref infinity and best_kappa = ref (-1) in
    for kappa = 0 to min k t.k_cap.(root) do
      let x = p_exact t ~v:root ~kappa ~b:b_root in
      if x < !best then begin
        best := x;
        best_kappa := kappa
      end
    done;
    if !best_kappa < 0 then
      finish t Placement.empty
        (float_of_int (Instance.total_path_volume (Instance.Tree.to_general inst)))
        false
    else begin
      let placement =
        Tdmd_obs.Telemetry.with_span tel "traceback" (fun () ->
            traceback t ~kappa_root:!best_kappa)
      in
      finish t placement !best true
    end
  end)
