(** One experiment per evaluation figure (paper Sec. 6.3–6.5).

    Each function regenerates the corresponding figure's series: for
    every sweep value it builds fresh seeded instances, runs the
    algorithms the paper plots, and returns one row per (x, algorithm)
    with mean ± stddev of bandwidth and wall-clock seconds.  Rendering
    to the terminal is in {!Report}. *)

type series = {
  algorithm : string;
  points : Runner.point list;
}

type result = {
  fig_id : string;
  title : string;
  x_label : string;
  series : series list;
      (** each point carries both metrics: bandwidth (Fig. N(a)) and
          execution time (Fig. N(b)) *)
}

val fig9 : ?seed:int -> ?reps:int -> unit -> result
(** Bandwidth & time vs middlebox budget k in the tree (k = 1..16 step 3). *)

val fig10 : ?seed:int -> ?reps:int -> unit -> result
(** vs traffic-changing ratio λ = 0..0.9 in the tree. *)

val fig11 : ?seed:int -> ?reps:int -> unit -> result
(** vs flow density 0.3..0.8 in the tree. *)

val fig12 : ?seed:int -> ?reps:int -> unit -> result
(** vs topology size 12..32 step 4 in the tree. *)

val fig13 : ?seed:int -> ?reps:int -> unit -> result
(** vs k = 12..22 step 2 in the general topology. *)

val fig14 : ?seed:int -> ?reps:int -> unit -> result
(** vs λ in the general topology. *)

val fig15 : ?seed:int -> ?reps:int -> unit -> result
(** vs density in the general topology. *)

val fig16 : ?seed:int -> ?reps:int -> unit -> result
(** vs size 12..52 step 8 in the general topology. *)

type grid = {
  fig_id : string;
  title : string;
  k_values : int list;
  density_values : float list;
  cells : (int * float * float) list;  (** (k, density, mean bandwidth) *)
}

val fig17_tree : ?seed:int -> ?reps:int -> unit -> grid
(** Spam filters (λ = 0): GTP bandwidth over the k × density grid, tree. *)

val fig17_general : ?seed:int -> ?reps:int -> unit -> grid
(** Same grid in the general topology. *)

type figure = Line of result | Grids of grid list

val figures : (string * (unit -> figure)) list
(** fig9..fig17 at their default seeds and reps, in paper order; fig17
    is its tree grid, then its general one. *)

type ablation_row = {
  label : string;
  metric : string;
  value : float;
}

type ablation_block = Celf | Scaled_dp | Hat_merges | Local_search | Incremental

val ablation_blocks : ablation_block list
(** Every block, in the order {!ablation} runs them. *)

val ablation_block : ?seed:int -> ?reps:int -> ablation_block -> ablation_row list
(** One block's rows.  The block draws its instances from its own
    generator, seeded by [seed] and a constant of the block, so its rows
    are the same whether it runs alone or inside {!ablation}. *)

val ablation : ?seed:int -> ?reps:int -> unit -> ablation_row list
(** Design ablations, every block of {!ablation_blocks} in order: CELF
    vs plain GTP oracle calls, rate-scaled DP accuracy/state trade-off,
    HAT merge count, local search and churn.  Every row is seeded
    quality or work, never wall clock, so two runs at one seed return
    identical rows. *)
