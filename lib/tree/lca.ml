type t = {
  tree : Rooted_tree.t;
  up : int array array;  (* up.(j).(v) = 2^j-th ancestor of v, or -1 *)
  log : int;
}

let build tree =
  let n = Rooted_tree.size tree in
  let log =
    let rec go l = if 1 lsl l >= n then l + 1 else go (l + 1) in
    go 0
  in
  let up = Array.make_matrix log n (-1) in
  for v = 0 to n - 1 do
    up.(0).(v) <- Rooted_tree.parent tree v
  done;
  for j = 1 to log - 1 do
    for v = 0 to n - 1 do
      let mid = up.(j - 1).(v) in
      up.(j).(v) <- (if mid < 0 then -1 else up.(j - 1).(mid))
    done
  done;
  { tree; up; log }

let ancestor_at t v steps =
  let v = ref v and steps = ref steps and j = ref 0 in
  while !steps > 0 && !v >= 0 do
    if !steps land 1 = 1 then v := t.up.(!j).(!v);
    steps := !steps lsr 1;
    incr j
  done;
  !v

let query t u v =
  let du = Rooted_tree.depth t.tree u and dv = Rooted_tree.depth t.tree v in
  let u, v = if du >= dv then (u, v) else (v, u) in
  let u = ancestor_at t u (abs (du - dv)) in
  if u = v then u
  else begin
    let u = ref u and v = ref v in
    for j = t.log - 1 downto 0 do
      if t.up.(j).(!u) <> t.up.(j).(!v) then begin
        u := t.up.(j).(!u);
        v := t.up.(j).(!v)
      end
    done;
    t.up.(0).(!u)
  end
