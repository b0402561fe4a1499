module Rt = Tdmd_tree.Rooted_tree

(* Per-vertex table with the same semantics as Dp: p.(kappa).(b) is the
   minimum consumption on edges strictly inside T_v with exactly kappa
   boxes and exactly b processed rate; choice.(kappa).(b) records the
   decision for traceback. *)
type cell_choice =
  | Leaf_box                      (* box on this leaf *)
  | Leaf_none
  | Split of { box : bool; kl : int; bl : int }
      (* left subtree gets (kl, bl); right gets the rest (after the
         box's budget unit when [box]) *)

type node_table = {
  p : float array array;
  choice : cell_choice option array array;
}

let solve ~k inst =
  let tel = Tdmd_obs.Telemetry.create () in
  Tdmd_obs.Telemetry.count tel "budget" k;
  Tdmd_obs.Telemetry.span_open tel "dp-binary";
  let finish placement bandwidth feasible =
    Tdmd_obs.Telemetry.span_close tel;
    Tdmd_obs.Telemetry.count tel "placement_size" (Placement.size placement);
    Solver_intf.outcome ~placement ~bandwidth ~feasible ~telemetry:tel
  in
  let tree = inst.Instance.Tree.tree in
  let lambda = inst.Instance.Tree.lambda in
  let n = Rt.size tree in
  let b_sub = Instance.Tree.subtree_rate inst in
  let subtree_size = Array.make n 1 in
  List.iter
    (fun v ->
      let p = Rt.parent tree v in
      if p >= 0 then subtree_size.(p) <- subtree_size.(p) + subtree_size.(v))
    (Rt.postorder tree);
  let k_cap = Array.map (fun s -> min k s) subtree_size in
  let tables = Array.make n None in
  (* The empty subtree: only (0 boxes, 0 processed) at cost 0. *)
  let empty_table =
    { p = [| [| 0.0 |] |]; choice = [| [| Some Leaf_none |] |] }
  in
  let get_table v = Option.get tables.(v) in
  List.iter
    (fun v ->
      let kv = k_cap.(v) and bv = b_sub.(v) in
      let p = Array.make_matrix (kv + 1) (bv + 1) infinity in
      let choice = Array.make_matrix (kv + 1) (bv + 1) None in
      (match Rt.children tree v with
      | [] ->
        (* Eqs. 9-10: a leaf costs nothing inside; a box forces its
           flows processed, no box leaves them for an ancestor. *)
        p.(0).(0) <- 0.0;
        choice.(0).(0) <- Some Leaf_none;
        if kv >= 1 then begin
          p.(1).(bv) <- 0.0;
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
        (* Uplink of a subtree with total rate bc and processed rate b:
           lambda*b + (bc - b), the paper's per-subtree terms. *)
        let uplink bc b = float_of_int bc -. ((1.0 -. lambda) *. float_of_int b) in
        (* Eq. 8 (no box at v): P(v,k,b) = min_p P(l,p,bl) + P(r,k-p,br)
           + uplinks, with b = bl + br.  Eq. 7's box case places one on
           v, jumping b to R_v. *)
        for kl = 0 to kl_max do
          for bl = 0 to bl_max do
            let pl = left.p.(kl).(bl) in
            if pl < infinity then
              for kr = 0 to min kr_max (kv - kl) do
                for br = 0 to br_max do
                  let pr = right.p.(kr).(br) in
                  if pr < infinity then begin
                    let cost = pl +. pr +. uplink bl_max bl +. uplink br_max br in
                    let kappa = kl + kr and b = bl + br in
                    if cost < p.(kappa).(b) then begin
                      p.(kappa).(b) <- cost;
                      choice.(kappa).(b) <- Some (Split { box = false; kl; bl })
                    end;
                    (* Box at v: same inside cost, one more budget unit,
                       everything through v processed. *)
                    if kappa + 1 <= kv && cost < p.(kappa + 1).(bv) then begin
                      p.(kappa + 1).(bv) <- cost;
                      choice.(kappa + 1).(bv) <- Some (Split { box = true; kl; bl })
                    end
                  end
                done
              done
          done
        done);
      Tdmd_obs.Telemetry.count tel "states"
        (Array.length p * Array.length p.(0));
      tables.(v) <- Some { p; choice })
    (Rt.postorder tree);
  let root = Rt.root tree in
  if Array.length inst.Instance.Tree.flows = 0 then
    finish Placement.empty 0.0 true
  else begin
    let b_root = b_sub.(root) in
    let tbl = get_table root in
    let best = ref infinity and best_kappa = ref (-1) in
    for kappa = 0 to min k k_cap.(root) do
      if tbl.p.(kappa).(b_root) < !best then begin
        best := tbl.p.(kappa).(b_root);
        best_kappa := kappa
      end
    done;
    if !best_kappa < 0 then
      finish Placement.empty
        (float_of_int (Instance.total_path_volume (Instance.Tree.to_general inst)))
        false
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
                (* Find the br that witnesses the stored cost. *)
                let target = tbl.p.(kappa).(b) in
                let left_tbl = get_table l and right_tbl = get_table r in
                let uplink bc pb =
                  float_of_int bc -. ((1.0 -. lambda) *. float_of_int pb)
                in
                let found = ref (-1) in
                for cand = 0 to b_sub.(r) do
                  if !found < 0 && right_tbl.p.(spent).(cand) < infinity
                     && left_tbl.p.(kl).(bl) < infinity
                  then begin
                    let cost =
                      left_tbl.p.(kl).(bl) +. right_tbl.p.(spent).(cand)
                      +. uplink b_sub.(l) bl
                      +. uplink b_sub.(r) cand
                    in
                    if cost = target then found := cand
                  end
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
