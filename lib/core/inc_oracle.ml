module Flow = Tdmd_flow.Flow

(* All bookkeeping lives in integer diminished-volume space (see
   bandwidth.ml): serving flow f at path position l contributes
   r_f · (hops_f − l) diminished edge-units, and the (1−λ) scaling is
   applied only at the float boundary, so every incremental answer is an
   integer-valued float that agrees bit-for-bit with a from-scratch
   Bandwidth.diminished_volume scan. *)

type op = Added of int | Removed of int | Untouched

(* The incidence has the layout of [Instance.incidence], indexed by flow
   slot.  A static oracle reads its instance's arrays and never writes
   them; an [empty] oracle owns its arrays and edits them as flows come
   and go, reusing vacated slots.  Everything from [placed] down is this
   oracle's deployment state. *)
type t = {
  owned : bool;                  (* flow edits allowed *)
  one_minus_lambda : float;
  slabs : int array array;       (* vertex -> (slot, position) pairs *)
  degree : int array;            (* vertex -> pairs in use *)
  mutable rates : int array;     (* slot -> r_f *)
  mutable hops : int array;      (* slot -> |p_f| *)
  mutable paths : int array array; (* slot -> p_f *)
  mutable first : int array;     (* slot -> serving position; hops + 1 = unserved *)
  mutable slots : int;           (* slots ever used *)
  mutable free : int list;       (* vacated slots, reused first *)
  mutable flows : int;
  mutable total_volume : int;    (* Σ_f r_f · hops_f *)
  placed : Bytes.t;              (* vertex -> deployed? *)
  mutable dim_volume : int;      (* Σ served r_f · (hops_f − first_f) *)
  mutable unserved : int;
  mutable placed_count : int;
  mutable log : op list;         (* most recent first, for undo *)
}

(* Diminished edge-units of one flow served at position [l] (l = hops is
   the destination: zero diminished edges; l > hops means unserved). *)
let contrib rate hops l = if l > hops then 0 else rate * (hops - l)

let make ~owned ~lambda ~vertices ~slabs ~degree ~rates ~hops ~paths =
  let nflows = Array.length hops in
  let total_volume = ref 0 in
  for fi = 0 to nflows - 1 do
    total_volume := !total_volume + (rates.(fi) * hops.(fi))
  done;
  {
    owned;
    one_minus_lambda = 1.0 -. lambda;
    slabs;
    degree;
    rates;
    hops;
    paths;
    first = Array.map (fun h -> h + 1) hops;
    slots = nflows;
    free = [];
    flows = nflows;
    total_volume = !total_volume;
    placed = Bytes.make vertices '\000';
    dim_volume = 0;
    unserved = nflows;
    placed_count = 0;
    log = [];
  }

let create instance =
  let { Instance.slabs; degree; rates; hops; paths } = instance.Instance.incidence in
  make ~owned:false ~lambda:instance.Instance.lambda
    ~vertices:(Instance.vertex_count instance) ~slabs ~degree ~rates ~hops ~paths

let empty ~vertices ~lambda =
  make ~owned:true ~lambda ~vertices ~slabs:(Array.make vertices [||])
    ~degree:(Array.make vertices 0) ~rates:[||] ~hops:[||] ~paths:[||]

let mask t = t.placed
let mem t v = Bytes.get t.placed v = '\001'
let size t = t.placed_count
let diminished_volume t = t.dim_volume

let bandwidth_at t dim =
  float_of_int t.total_volume -. (t.one_minus_lambda *. float_of_int dim)

let bandwidth t = bandwidth_at t t.dim_volume

let unserved_count t = t.unserved
let is_feasible t = t.unserved = 0

(* Next deployed position on a path from [q] on, or hops + 1. *)
let next_deployed t path q =
  let q = ref q in
  while !q < Array.length path && Bytes.get t.placed path.(!q) = '\000' do
    incr q
  done;
  !q

let do_add t v =
  Bytes.set t.placed v '\001';
  t.placed_count <- t.placed_count + 1;
  let s = t.slabs.(v) and rates = t.rates and hops = t.hops and first = t.first in
  for i = 0 to t.degree.(v) - 1 do
    let fi = s.(2 * i) and pos = s.((2 * i) + 1) in
    let old = first.(fi) in
    if pos < old then begin
      let h = hops.(fi) in
      if old > h then t.unserved <- t.unserved - 1;
      t.dim_volume <- t.dim_volume + contrib rates.(fi) h pos - contrib rates.(fi) h old;
      first.(fi) <- pos
    end
  done

(* [v]'s bit is cleared first and paths repeat no vertex, so the scan
   for each affected flow's next deployed vertex reads the post-removal
   deployment straight off [placed]. *)
let do_remove t v =
  Bytes.set t.placed v '\000';
  t.placed_count <- t.placed_count - 1;
  let s = t.slabs.(v) and rates = t.rates and hops = t.hops and first = t.first in
  for i = 0 to t.degree.(v) - 1 do
    let fi = s.(2 * i) and pos = s.((2 * i) + 1) in
    if pos = first.(fi) then begin
      let h = hops.(fi) in
      let next = next_deployed t t.paths.(fi) (pos + 1) in
      if next > h then t.unserved <- t.unserved + 1;
      t.dim_volume <- t.dim_volume + contrib rates.(fi) h next - contrib rates.(fi) h pos;
      first.(fi) <- next
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

(* Vacated slots are in no slab, so whatever [first] holds for them is
   never read. *)
let reset t =
  Bytes.fill t.placed 0 (Bytes.length t.placed) '\000';
  for fi = 0 to t.slots - 1 do
    t.first.(fi) <- t.hops.(fi) + 1
  done;
  t.dim_volume <- 0;
  t.unserved <- t.flows;
  t.placed_count <- 0;
  t.log <- []

let of_list instance vs =
  let t = create instance in
  List.iter (fun v -> if not (mem t v) then do_add t v) vs;
  t

(* {1 Flow edits} *)

let grow a fill =
  let b = Array.make (max 8 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add_flow t f =
  if not t.owned then
    invalid_arg "Inc_oracle.add_flow: the incidence belongs to an instance";
  let slot =
    match t.free with
    | s :: rest ->
      t.free <- rest;
      s
    | [] ->
      if t.slots = Array.length t.rates then begin
        t.rates <- grow t.rates 0;
        t.hops <- grow t.hops 0;
        t.paths <- grow t.paths [||];
        t.first <- grow t.first 1
      end;
      t.slots <- t.slots + 1;
      t.slots - 1
  in
  let path = f.Flow.path and rate = f.Flow.rate in
  let h = Array.length path - 1 in
  Array.iteri
    (fun pos v ->
      let d = t.degree.(v) in
      if 2 * d = Array.length t.slabs.(v) then t.slabs.(v) <- grow t.slabs.(v) 0;
      t.slabs.(v).(2 * d) <- slot;
      t.slabs.(v).((2 * d) + 1) <- pos;
      t.degree.(v) <- d + 1)
    path;
  t.rates.(slot) <- rate;
  t.hops.(slot) <- h;
  t.paths.(slot) <- path;
  let first = next_deployed t path 0 in
  t.first.(slot) <- first;
  t.flows <- t.flows + 1;
  t.total_volume <- t.total_volume + (rate * h);
  if first > h then t.unserved <- t.unserved + 1
  else t.dim_volume <- t.dim_volume + contrib rate h first;
  t.log <- [];
  slot

(* Each path vertex's slab drops the slot's pair by moving its last
   pair into the hole: slab order never affects an answer. *)
let remove_flow t slot =
  if not t.owned then
    invalid_arg "Inc_oracle.remove_flow: the incidence belongs to an instance";
  let path = t.paths.(slot) and rate = t.rates.(slot) and h = t.hops.(slot) in
  Array.iter
    (fun v ->
      let s = t.slabs.(v) and last = t.degree.(v) - 1 in
      let i = ref 0 in
      while s.(2 * !i) <> slot do
        incr i
      done;
      s.(2 * !i) <- s.(2 * last);
      s.((2 * !i) + 1) <- s.((2 * last) + 1);
      t.degree.(v) <- last)
    path;
  let first = t.first.(slot) in
  t.flows <- t.flows - 1;
  t.total_volume <- t.total_volume - (rate * h);
  if first > h then t.unserved <- t.unserved - 1
  else t.dim_volume <- t.dim_volume - contrib rate h first;
  (* Drop the path so the departed flow can be collected. *)
  t.paths.(slot) <- [||];
  t.free <- slot :: t.free;
  t.log <- []

(* {1 Queries} *)

let marginal_volume t v =
  if mem t v then 0
  else begin
    let s = t.slabs.(v) and rates = t.rates and hops = t.hops and first = t.first in
    let acc = ref 0 in
    for i = 0 to t.degree.(v) - 1 do
      let fi = s.(2 * i) and pos = s.((2 * i) + 1) in
      let old = first.(fi) in
      if pos < old then begin
        let h = hops.(fi) in
        acc := !acc + contrib rates.(fi) h pos - contrib rates.(fi) h old
      end
    done;
    !acc
  end

let newly_served t v =
  if mem t v then 0
  else begin
    let s = t.slabs.(v) and hops = t.hops and first = t.first in
    let n = ref 0 in
    for i = 0 to t.degree.(v) - 1 do
      let fi = s.(2 * i) in
      if first.(fi) > hops.(fi) then incr n
    done;
    !n
  end

let serves t v =
  let s = t.slabs.(v) in
  let rec scan i =
    i < t.degree.(v) && (t.first.(s.(2 * i)) = s.((2 * i) + 1) || scan (i + 1))
  in
  mem t v && scan 0

let argmax t score =
  let best = ref (-1) and best_score = ref 0 in
  for v = 0 to Bytes.length t.placed - 1 do
    let g = score t v in
    if g > !best_score then begin
      best := v;
      best_score := g
    end
  done;
  if !best < 0 then None else Some !best

let placement t =
  let vs = ref [] in
  for v = Bytes.length t.placed - 1 downto 0 do
    if mem t v then vs := v :: !vs
  done;
  Placement.of_list !vs
