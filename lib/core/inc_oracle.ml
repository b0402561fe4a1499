module Flow = Tdmd_flow.Flow

(* All bookkeeping lives in integer diminished-volume space (see
   bandwidth.ml): serving flow f at path position l contributes
   r_f · (hops_f − l) diminished edge-units, so every answer is an
   integer that agrees with a from-scratch Bandwidth.diminished_volume
   scan, and b is rendered from it only when asked.

   The gain ledger answers the what-if queries.  A flow of rate r and h
   hops served at position s (h + 1 = unserved) holds, at each path
   vertex at a position p < s, r · (min s h − p) of [gain] — what a box
   there would add — and counts once in [uncov] at every path vertex
   while unserved.  A deployed vertex holds neither, since every flow
   through it is served there or earlier.  Each half of the ledger is
   built by the first query that reads it after [make] or [reset] and
   kept current by every edit from then on; an oracle that is only
   edited never pays for either, and the cover fix-up, which asks only
   cover questions and edits the deployment it is handed, builds at most
   [uncov] and keeps whatever its caller built.  A static oracle whose
   deployment is empty copies both halves from its instance
   ([Instance.incidence]'s [empty_gain], and [degree] as the unserved
   counts); any other build walks the flows, only the unserved ones for
   [uncov].

   The ledger's arithmetic is on ints throughout: [Int.min], not
   Stdlib's polymorphic [min], which ocamlopt without flambda compiles
   at type int to a call through [caml_lessequal].

   The swap searches price "this deployment without deployed box u"
   without editing it.  Only the flows u serves move: each is served
   next at its next deployed position b (or not at all), so the ledger
   without u differs from the ledger with u only on those flows' paths,
   by the terms [shift_serving] would add.  [price_without] writes those
   corrections into stamped scratch arrays; every other vertex keeps its
   ledger entry.  No correction is negative (a removal never lowers a
   marginal: Theorem 2's submodularity), so the undeployed vertex of
   highest ledger gain, the [leader], valued with its own correction, is
   never beaten by a vertex the removal leaves untouched: the best
   candidate without u is the best of the leader and the touched
   vertices.  The leader is found in one pass once per deployment. *)

type op = Added of int | Removed of int | Untouched

(* What-if scratch, allocated by the first swap query.  A vertex's
   corrections hold only while its [stamp] equals [epoch], which every
   pricing advances, so no pass clears them. *)
type scratch = {
  stamp : int array;             (* vertex -> pricing that last corrected it *)
  dgain : int array;             (* vertex -> correction to [gain], when stamped *)
  duncov : int array;            (* vertex -> correction to [uncov], when stamped *)
  touched : int array;           (* the stamped vertices, [count] of them *)
  mutable count : int;
  mutable epoch : int;
  mutable stranded : int;        (* flows the priced box alone serves *)
}

(* The incidence has the layout of [Instance.incidence], indexed by flow
   slot.  A static oracle reads its instance's arrays and never writes
   them; an [empty] oracle owns its arrays and edits them as flows come
   and go, reusing vacated slots.  Everything from [placed] down is this
   oracle's deployment state. *)
type t = {
  owned : bool;                  (* flow edits allowed *)
  lambda : float;
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
  gain : int array;              (* vertex -> marginal volume, when [gain_ok] *)
  uncov : int array;             (* vertex -> unserved flows through it, when [uncov_ok] *)
  mutable gain_ok : bool;
  mutable uncov_ok : bool;
  mutable by_hops : int array;   (* [disjoint_paths]'s counting sort, kept between calls *)
  empty_gain : int array;        (* a static oracle's instance's empty-deployment gains *)
  packed : int Atomic.t option;  (* the instance's full packing size, for a static oracle *)
  mutable scratch : scratch option;
  mutable leader : int;          (* undeployed vertex of highest gain, lowest on ties;
                                    −1: none; −2: not found since the last edit *)
}

(* Diminished edge-units of one flow served at position [l] (l = hops is
   the destination: zero diminished edges; l > hops means unserved). *)
let contrib rate hops l = if l > hops then 0 else rate * (hops - l)

let make ~owned ~lambda ~vertices ~slabs ~degree ~rates ~hops ~paths ~total_volume
    ~empty_gain ~packed =
  let nflows = Array.length hops in
  {
    owned;
    lambda;
    slabs;
    degree;
    rates;
    hops;
    paths;
    first = Array.map (fun h -> h + 1) hops;
    slots = nflows;
    free = [];
    flows = nflows;
    total_volume;
    placed = Bytes.make vertices '\000';
    dim_volume = 0;
    unserved = nflows;
    placed_count = 0;
    log = [];
    gain = Array.make vertices 0;
    uncov = Array.make vertices 0;
    gain_ok = false;
    uncov_ok = false;
    by_hops = [||];
    empty_gain;
    packed;
    scratch = None;
    leader = -2;
  }

let create instance =
  let { Instance.slabs; degree; rates; hops; paths; empty_gain; disjoint_paths } =
    instance.Instance.incidence
  in
  make ~owned:false ~lambda:instance.Instance.lambda
    ~vertices:(Instance.vertex_count instance) ~slabs ~degree ~rates ~hops ~paths
    ~total_volume:(Instance.total_path_volume instance) ~empty_gain
    ~packed:(Some disjoint_paths)

let empty ~vertices ~lambda =
  Instance.check_lambda "Inc_oracle.empty" lambda;
  make ~owned:true ~lambda ~vertices ~slabs:(Array.make vertices [||])
    ~degree:(Array.make vertices 0) ~rates:[||] ~hops:[||] ~paths:[||] ~total_volume:0
    ~empty_gain:[||] ~packed:None

let mem t v = Bytes.get t.placed v = '\001'
let size t = t.placed_count
let diminished_volume t = t.dim_volume

let bandwidth t = Bandwidth.render ~lambda:t.lambda ~total:t.total_volume t.dim_volume

let unserved_count t = t.unserved
let is_feasible t = t.unserved = 0

(* Next deployed position on a path from [q] on, or hops + 1. *)
let next_deployed t path q =
  let q = ref q in
  while !q < Array.length path && Bytes.get t.placed path.(!q) = '\000' do
    incr q
  done;
  !q

(* {1 Gain ledger} *)

(* Add [sign] times flow [fi]'s [gain] terms at serving position [s]. *)
let add_gains t fi s sign =
  let path = t.paths.(fi) and r = t.rates.(fi) and gain = t.gain in
  let top = Int.min s t.hops.(fi) in
  for p = 0 to top - 1 do
    let v = path.(p) in
    gain.(v) <- gain.(v) + (sign * r * (top - p))
  done

(* Add [sign] to [uncov] at every vertex of flow [fi]'s path. *)
let add_uncovered t fi sign =
  let path = t.paths.(fi) and uncov = t.uncov in
  for p = 0 to Array.length path - 1 do
    let v = path.(p) in
    uncov.(v) <- uncov.(v) + sign
  done

(* Flow [fi]'s serving position moves from [a] to [b]: the positions
   below both shift by r · (min b h − min a h), those in between gain or
   lose their whole term, and [uncov] changes only when the flow goes
   from served to unserved or back. *)
let shift_serving t fi a b =
  let path = t.paths.(fi) and r = t.rates.(fi) and h = t.hops.(fi) in
  if t.gain_ok then begin
    let gain = t.gain in
    let shift = r * (Int.min b h - Int.min a h) in
    if shift <> 0 then
      for p = 0 to Int.min a b - 1 do
        let v = path.(p) in
        gain.(v) <- gain.(v) + shift
      done;
    if b < a then begin
      let top = Int.min a h in
      for p = b to top - 1 do
        let v = path.(p) in
        gain.(v) <- gain.(v) - (r * (top - p))
      done
    end
    else begin
      let top = Int.min b h in
      for p = a to top - 1 do
        let v = path.(p) in
        gain.(v) <- gain.(v) + (r * (top - p))
      done
    end
  end;
  if t.uncov_ok && (a > h) <> (b > h) then add_uncovered t fi (if b > h then 1 else -1)

(* With nothing deployed every flow is unserved, so a static oracle's
   ledger is its instance's: the empty gains, and [degree] as the
   unserved counts.  Vacated slots, whose path is empty, hold no terms. *)
let[@inline] static_and_empty t = (not t.owned) && t.placed_count = 0

let build_gain t =
  if static_and_empty t then Array.blit t.empty_gain 0 t.gain 0 (Array.length t.gain)
  else begin
    Array.fill t.gain 0 (Array.length t.gain) 0;
    for fi = 0 to t.slots - 1 do
      if Array.length t.paths.(fi) > 0 then add_gains t fi t.first.(fi) 1
    done
  end;
  t.gain_ok <- true

let build_uncov t =
  if static_and_empty t then Array.blit t.degree 0 t.uncov 0 (Array.length t.uncov)
  else begin
    Array.fill t.uncov 0 (Array.length t.uncov) 0;
    for fi = 0 to t.slots - 1 do
      if Array.length t.paths.(fi) > 0 && t.first.(fi) > t.hops.(fi) then
        add_uncovered t fi 1
    done
  end;
  t.uncov_ok <- true

let[@inline] ensure_gain t = if not t.gain_ok then build_gain t
let[@inline] ensure_uncov t = if not t.uncov_ok then build_uncov t

(* {1 Deployment edits} *)

let do_add t v =
  Bytes.set t.placed v '\001';
  t.placed_count <- t.placed_count + 1;
  t.leader <- -2;
  let s = t.slabs.(v) and rates = t.rates and hops = t.hops and first = t.first in
  for i = 0 to t.degree.(v) - 1 do
    let fi = s.(2 * i) and pos = s.((2 * i) + 1) in
    let old = first.(fi) in
    if pos < old then begin
      let h = hops.(fi) in
      if old > h then t.unserved <- t.unserved - 1;
      t.dim_volume <- t.dim_volume + contrib rates.(fi) h pos - contrib rates.(fi) h old;
      first.(fi) <- pos;
      if t.gain_ok || t.uncov_ok then shift_serving t fi old pos
    end
  done

(* [v]'s bit is cleared first and paths repeat no vertex, so the scan
   for each affected flow's next deployed vertex reads the post-removal
   deployment straight off [placed]. *)
let do_remove t v =
  Bytes.set t.placed v '\000';
  t.placed_count <- t.placed_count - 1;
  t.leader <- -2;
  let s = t.slabs.(v) and rates = t.rates and hops = t.hops and first = t.first in
  for i = 0 to t.degree.(v) - 1 do
    let fi = s.(2 * i) and pos = s.((2 * i) + 1) in
    if pos = first.(fi) then begin
      let h = hops.(fi) in
      let next = next_deployed t t.paths.(fi) (pos + 1) in
      if next > h then t.unserved <- t.unserved + 1;
      t.dim_volume <- t.dim_volume + contrib rates.(fi) h next - contrib rates.(fi) h pos;
      first.(fi) <- next;
      if t.gain_ok || t.uncov_ok then shift_serving t fi pos next
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
  t.log <- [];
  t.gain_ok <- false;
  t.uncov_ok <- false;
  t.leader <- -2

let of_list instance vs =
  let t = create instance in
  List.iter (fun v -> if not (mem t v) then do_add t v) vs;
  t

(* {1 Flow edits} *)

let grow a fill =
  let b = Array.make (Int.max 8 (2 * Array.length a)) fill in
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
  if t.gain_ok then add_gains t slot first 1;
  if t.uncov_ok && first > h then add_uncovered t slot 1;
  t.log <- [];
  t.leader <- -2;
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
  if t.gain_ok then add_gains t slot first (-1);
  if t.uncov_ok && first > h then add_uncovered t slot (-1);
  (* Drop the path so the departed flow can be collected. *)
  t.paths.(slot) <- [||];
  t.free <- slot :: t.free;
  t.log <- [];
  t.leader <- -2

(* {1 Queries} *)

let marginal_volume t v =
  ensure_gain t;
  t.gain.(v)

let newly_served t v =
  ensure_uncov t;
  t.uncov.(v)

let serves t v =
  let s = t.slabs.(v) in
  let rec scan i =
    i < t.degree.(v) && (t.first.(s.(2 * i)) = s.((2 * i) + 1) || scan (i + 1))
  in
  mem t v && scan 0

type count = Marginal_volume | Newly_served

let argmax t count =
  let a =
    match count with
    | Marginal_volume ->
      ensure_gain t;
      t.gain
    | Newly_served ->
      ensure_uncov t;
      t.uncov
  in
  let best = ref (-1) and best_score = ref 0 in
  for v = 0 to Array.length a - 1 do
    let g = a.(v) in
    if g > !best_score then begin
      best := v;
      best_score := g
    end
  done;
  if !best < 0 then None else Some !best

(* {1 Disjoint-path packing} *)

(* Shortest path first: a counting sort of the live slots by hop count
   (at most |V| − 1, since paths repeat no vertex), then one pass that
   keeps each path that shares no vertex with a path kept before it.
   The sort runs in [by_hops]: bucket starts in cells 0..|V|, the sorted
   slots after them.  It outlives the call, so the churn engine's oracle
   sorts without allocating on the major heap at every fix-up. *)
let pack t ~at_most =
  let n = Bytes.length t.placed in
  let need = n + 1 + t.flows in
  if Array.length t.by_hops < need then
    t.by_hops <- Array.make (Int.max need (2 * Array.length t.by_hops)) 0;
  let a = t.by_hops in
  Array.fill a 0 (n + 1) 0;
  for fi = 0 to t.slots - 1 do
    if Array.length t.paths.(fi) > 0 then begin
      let h = t.hops.(fi) + 1 in
      a.(h) <- a.(h) + 1
    end
  done;
  a.(0) <- n + 1;
  for h = 1 to n do
    a.(h) <- a.(h) + a.(h - 1)
  done;
  for fi = 0 to t.slots - 1 do
    if Array.length t.paths.(fi) > 0 then begin
      let h = t.hops.(fi) in
      a.(a.(h)) <- fi;
      a.(h) <- a.(h) + 1
    end
  done;
  let taken = Bytes.make n '\000' in
  let rec free path p = p < 0 || (Bytes.get taken path.(p) = '\000' && free path (p - 1)) in
  let kept = ref 0 and i = ref (n + 1) in
  while !kept < at_most && !i < n + 1 + t.flows do
    let path = t.paths.(a.(!i)) in
    if free path (Array.length path - 1) then begin
      for p = 0 to Array.length path - 1 do
        Bytes.set taken path.(p) '\001'
      done;
      incr kept
    end;
    incr i
  done;
  !kept

(* A static oracle's flows never change, so the first one over an
   instance packs them all and stores the size with the instance; a
   packing that stops at [at_most] holds the minimum of the two, so
   that answers every later call.  Oracles racing on the first store
   store the same size. *)
let disjoint_paths t ~at_most =
  match t.packed with
  | None -> pack t ~at_most
  | Some cell ->
    let size = Atomic.get cell in
    let size =
      if size >= 0 then size
      else begin
        let size = pack t ~at_most:max_int in
        Atomic.set cell size;
        size
      end
    in
    Int.min at_most size

(* {1 What-if removal} *)

let scratch t =
  match t.scratch with
  | Some s -> s
  | None ->
    let n = Bytes.length t.placed in
    let s =
      {
        stamp = Array.make n 0;
        dgain = Array.make n 0;
        duncov = Array.make n 0;
        touched = Array.make n 0;
        count = 0;
        epoch = 0;
        stranded = 0;
      }
    in
    t.scratch <- Some s;
    s

let leader t =
  if t.leader = -2 then begin
    let best = ref (-1) in
    for v = 0 to Bytes.length t.placed - 1 do
      if Bytes.get t.placed v = '\000' && (!best < 0 || t.gain.(v) > t.gain.(!best)) then
        best := v
    done;
    t.leader <- !best
  end;
  t.leader

let[@inline] touch s v dg du =
  if s.stamp.(v) <> s.epoch then begin
    s.stamp.(v) <- s.epoch;
    s.dgain.(v) <- dg;
    s.duncov.(v) <- du;
    s.touched.(s.count) <- v;
    s.count <- s.count + 1
  end
  else begin
    s.dgain.(v) <- s.dgain.(v) + dg;
    s.duncov.(v) <- s.duncov.(v) + du
  end

(* Price the deployment without deployed box [u] (−1: without nothing)
   into the scratch and return the diminished volume [u] alone serves.
   Each flow served at [u]'s position [pos] would be served next at its
   next deployed position [b]: the terms [shift_serving t fi pos b]
   would add, written as corrections instead.  Reads the deployment,
   writes only the scratch. *)
let price_without t s u =
  s.epoch <- s.epoch + 1;
  s.count <- 0;
  s.stranded <- 0;
  let lost = ref 0 in
  if u >= 0 then begin
    let sl = t.slabs.(u) in
    for i = 0 to t.degree.(u) - 1 do
      let fi = sl.(2 * i) and pos = sl.((2 * i) + 1) in
      if pos = t.first.(fi) then begin
        let path = t.paths.(fi) and r = t.rates.(fi) and h = t.hops.(fi) in
        let b = next_deployed t path (pos + 1) in
        let top = Int.min b h in
        let shift = r * (top - pos) in
        lost := !lost + shift;
        let stranded = b > h in
        if stranded then s.stranded <- s.stranded + 1;
        let du = if stranded then 1 else 0 in
        for p = 0 to (if stranded then h else top - 1) do
          let dg = if p < pos then shift else if p < top then r * (top - p) else 0 in
          touch s path.(p) dg du
        done
      end
    done
  end;
  !lost

let[@inline] gain_without t s v =
  if s.stamp.(v) = s.epoch then t.gain.(v) + s.dgain.(v) else t.gain.(v)

let[@inline] uncov_without t s v =
  if s.stamp.(v) = s.epoch then t.uncov.(v) + s.duncov.(v) else t.uncov.(v)

(* {1 Swap scan} *)

type move = {
  mutable outgoing : int;
  mutable incoming : int;
  mutable after : int;
  mutable probes : int;
  mutable evaluations : int;
}

let no_move () = { outgoing = -1; incoming = -1; after = 0; probes = 0; evaluations = 0 }

(* Each scan offers its best candidate once: over successive scans the
   first strictly better move wins.  At λ = 1 no move lowers b, so none
   is taken. *)
let offer t m ~outgoing ~current v d =
  if Bandwidth.diminishes t.lambda && (m.incoming < 0 || d > m.after) && d > current
  then begin
    m.outgoing <- outgoing;
    m.incoming <- v;
    m.after <- d
  end

(* A deployment that already leaves flows unserved is scored by a pass
   over every vertex.  With every flow served before the removal, a
   candidate keeps every flow served only if it lies on every stranded
   path, so only touched vertices qualify.  Without stranded flows every
   candidate qualifies, and the best is the highest gain, the leader's
   or a touched vertex's.  Lowest vertex on ties; with no leader there
   is no candidate. *)
let scan_moves t ~outgoing ~current m =
  if outgoing >= 0 && not (mem t outgoing) then
    invalid_arg "Inc_oracle.scan_moves: outgoing vertex not deployed";
  ensure_gain t;
  ensure_uncov t;
  let s = scratch t in
  let dim = t.dim_volume - price_without t s outgoing in
  let unserved = t.unserved + s.stranded in
  let candidates = Bytes.length t.placed - t.placed_count in
  m.probes <- m.probes + candidates;
  let best = ref (-1) and best_gain = ref 0 and evaluations = ref 0 in
  let consider v =
    incr evaluations;
    let g = gain_without t s v in
    if !best < 0 || g > !best_gain || (g = !best_gain && v < !best) then begin
      best := v;
      best_gain := g
    end
  in
  if t.unserved > 0 then begin
    for v = 0 to Bytes.length t.placed - 1 do
      if Bytes.get t.placed v = '\000' && uncov_without t s v = unserved then consider v
    done
  end
  else begin
    let stranding = unserved > 0 in
    if not stranding then begin
      let w = leader t in
      if w >= 0 then consider w
    end;
    for i = 0 to s.count - 1 do
      let v = s.touched.(i) in
      if v <> outgoing && ((not stranding) || s.duncov.(v) = unserved) then consider v
    done;
    if not stranding then evaluations := if !best < 0 then 0 else candidates
  end;
  if !best >= 0 then offer t m ~outgoing ~current !best (dim + !best_gain);
  m.evaluations <- m.evaluations + !evaluations

(* {1 Best replacement} *)

type replacement = {
  volume : int;
  unserved : int;
  incoming : int;
  gain : int;
  served : int;
}

(* [argmax Marginal_volume] over the deployment without [u]: the leader
   and the touched vertices, [u] among them when it serves a flow (a box
   that serves none would add nothing). *)
let best_replacement t u =
  if not (mem t u) then invalid_arg "Inc_oracle.best_replacement: vertex not deployed";
  ensure_gain t;
  ensure_uncov t;
  let s = scratch t in
  let lost = price_without t s u in
  let best = ref (-1) and best_gain = ref 0 in
  let consider v g =
    if g > !best_gain || (g = !best_gain && !best >= 0 && v < !best) then begin
      best := v;
      best_gain := g
    end
  in
  let w = leader t in
  if w >= 0 then consider w (gain_without t s w);
  for i = 0 to s.count - 1 do
    let v = s.touched.(i) in
    consider v (gain_without t s v)
  done;
  {
    volume = t.dim_volume - lost;
    unserved = t.unserved + s.stranded;
    incoming = !best;
    gain = !best_gain;
    served = (if !best < 0 then 0 else uncov_without t s !best);
  }

let placement t =
  let vs = ref [] in
  for v = Bytes.length t.placed - 1 downto 0 do
    if mem t v then vs := v :: !vs
  done;
  Placement.of_list !vs
