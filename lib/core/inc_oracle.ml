module Flow = Tdmd_flow.Flow

(* All bookkeeping lives in integer diminished-volume space (see
   bandwidth.ml): serving flow f at path position l contributes
   r_f · (hops_f − l) diminished edge-units, and the (1−λ) scaling is
   applied only at the float boundary, so every incremental answer is an
   integer-valued float that agrees bit-for-bit with a from-scratch
   Bandwidth.diminished_volume scan. *)

type op = Added of int | Removed of int | Untouched

(* [inc] is the instance's shared incidence (read-only here); everything
   below it is this run's deployment state. *)
type t = {
  flows : Flow.t array;
  inc : Instance.incidence;
  one_minus_lambda : float;
  total_volume : int;            (* Σ_f r_f · hops_f *)
  placed : Bytes.t;              (* vertex -> deployed? *)
  first : int array;             (* flow -> serving position; hops + 1 = unserved *)
  mutable dim_volume : int;      (* Σ served r_f · (hops_f − first_f) *)
  mutable unserved : int;
  mutable placed_count : int;
  mutable log : op list;         (* most recent first, for undo *)
}

(* Diminished edge-units of one flow served at position [l] (l = hops is
   the destination: zero diminished edges; l > hops means unserved). *)
let contrib rate hops l = if l > hops then 0 else rate * (hops - l)

let create instance =
  let inc = instance.Instance.incidence in
  let nflows = Array.length inc.Instance.hops in
  let total_volume = ref 0 in
  for fi = 0 to nflows - 1 do
    total_volume := !total_volume + (inc.Instance.rates.(fi) * inc.Instance.hops.(fi))
  done;
  {
    flows = instance.Instance.flows;
    inc;
    one_minus_lambda = 1.0 -. instance.Instance.lambda;
    total_volume = !total_volume;
    placed = Bytes.make (Instance.vertex_count instance) '\000';
    first = Array.map (fun h -> h + 1) inc.Instance.hops;
    dim_volume = 0;
    unserved = nflows;
    placed_count = 0;
    log = [];
  }

let mem t v = Bytes.get t.placed v = '\001'
let size t = t.placed_count
let diminished_volume t = t.dim_volume
let decrement t = t.one_minus_lambda *. float_of_int t.dim_volume

let bandwidth_at t dim =
  float_of_int t.total_volume -. (t.one_minus_lambda *. float_of_int dim)

let bandwidth t = bandwidth_at t t.dim_volume

let unserved_count t = t.unserved
let is_feasible t = t.unserved = 0

let do_add t v =
  Bytes.set t.placed v '\001';
  t.placed_count <- t.placed_count + 1;
  let { Instance.offsets; entries; rates; hops } = t.inc in
  for i = offsets.(v) to offsets.(v + 1) - 1 do
    let fi = entries.(2 * i) and pos = entries.((2 * i) + 1) in
    let old = t.first.(fi) in
    if pos < old then begin
      let h = hops.(fi) in
      if old > h then t.unserved <- t.unserved - 1;
      t.dim_volume <- t.dim_volume + contrib rates.(fi) h pos - contrib rates.(fi) h old;
      t.first.(fi) <- pos
    end
  done

(* [v]'s bit is cleared first and paths repeat no vertex, so the scan
   for each affected flow's next deployed vertex reads the post-removal
   deployment straight off [placed]. *)
let do_remove t v =
  Bytes.set t.placed v '\000';
  t.placed_count <- t.placed_count - 1;
  let { Instance.offsets; entries; rates; hops } = t.inc in
  for i = offsets.(v) to offsets.(v + 1) - 1 do
    let fi = entries.(2 * i) and pos = entries.((2 * i) + 1) in
    if pos = t.first.(fi) then begin
      let path = t.flows.(fi).Flow.path in
      let h = hops.(fi) in
      (* Next deployed vertex down the path, or the unserved sentinel. *)
      let q = ref (pos + 1) in
      while !q <= h && Bytes.get t.placed path.(!q) = '\000' do
        incr q
      done;
      let next = !q in
      if next > h then t.unserved <- t.unserved + 1;
      t.dim_volume <- t.dim_volume + contrib rates.(fi) h next - contrib rates.(fi) h pos;
      t.first.(fi) <- next
    end
  done

let add t v =
  if mem t v then t.log <- Untouched :: t.log
  else begin
    do_add t v;
    t.log <- Added v :: t.log
  end

let remove t v =
  if not (mem t v) then t.log <- Untouched :: t.log
  else begin
    do_remove t v;
    t.log <- Removed v :: t.log
  end

let undo t =
  match t.log with
  | [] -> invalid_arg "Inc_oracle.undo: nothing to undo"
  | Untouched :: rest -> t.log <- rest
  | Added v :: rest ->
    do_remove t v;
    t.log <- rest
  | Removed v :: rest ->
    do_add t v;
    t.log <- rest

let reset t =
  Bytes.fill t.placed 0 (Bytes.length t.placed) '\000';
  Array.iteri (fun fi h -> t.first.(fi) <- h + 1) t.inc.Instance.hops;
  t.dim_volume <- 0;
  t.unserved <- Array.length t.first;
  t.placed_count <- 0;
  t.log <- []

let of_list instance vs =
  let t = create instance in
  List.iter (fun v -> if not (mem t v) then do_add t v) vs;
  t

let marginal_volume t v =
  if mem t v then 0
  else begin
    let { Instance.offsets; entries; rates; hops } = t.inc in
    let acc = ref 0 in
    for i = offsets.(v) to offsets.(v + 1) - 1 do
      let fi = entries.(2 * i) and pos = entries.((2 * i) + 1) in
      let old = t.first.(fi) in
      if pos < old then begin
        let h = hops.(fi) in
        acc := !acc + contrib rates.(fi) h pos - contrib rates.(fi) h old
      end
    done;
    !acc
  end

let marginal t v = t.one_minus_lambda *. float_of_int (marginal_volume t v)

let newly_served t v =
  if mem t v then 0
  else begin
    let { Instance.offsets; entries; hops; _ } = t.inc in
    let n = ref 0 in
    for i = offsets.(v) to offsets.(v + 1) - 1 do
      let fi = entries.(2 * i) in
      if t.first.(fi) > hops.(fi) then incr n
    done;
    !n
  end

let iter_unserved t k =
  Array.iteri (fun fi h -> if t.first.(fi) > h then k fi) t.inc.Instance.hops

let placement t =
  let vs = ref [] in
  for v = Bytes.length t.placed - 1 downto 0 do
    if mem t v then vs := v :: !vs
  done;
  Placement.of_list !vs
