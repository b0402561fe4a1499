(** Flow-rate distributions.

    The paper samples flow sizes from a 1-hour CAIDA packet trace; the
    trace itself is not redistributable, so [Caida_like] provides the
    property that matters — a heavy-tailed mice/elephants mixture with
    integral rates (see DESIGN.md §2). *)

open Tdmd_prelude

type t =
  | Constant of int                       (** every flow has this rate *)
  | Uniform of int * int                  (** inclusive integer range *)
  | Pareto_int of { alpha : float; x_min : int; cap : int }
      (** Pareto tail rounded to integers and truncated at [cap] *)
  | Caida_like of { r_max : int }
      (** ~80% mice at rate 1–2, ~15% mid flows, ~5% elephants with a
          Pareto tail up to [r_max] *)

val sample : t -> Rng.t -> int
(** Always >= 1. *)

val mean : t -> float
(** Expected rate (estimate for the mixtures; used for density
    targeting). *)
