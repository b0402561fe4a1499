(** Shared machinery for the portfolio's metaheuristic members.

    Everything here works in the exact-integer diminished-volume domain
    of {!Tdmd.Inc_oracle} — candidates are compared as [int]s, never as
    floats, so two runs that visit the same states score them
    bit-identically.  Feasibility repair goes through
    {!Tdmd.Cover_fixup}, the same fixup the greedy registry solvers
    use. *)

type result = {
  placement : int list;  (** best feasible placement found, sorted; [[]] if none *)
  volume : int;  (** its exact-integer diminished volume *)
  feasible : bool;  (** false only when no feasible placement was seen *)
  steps : int;  (** optimisation steps actually executed *)
  improvements : int;  (** strict best-so-far improvements published *)
}

val no_result : feasible:bool -> result
(** Zero-step result for degenerate inputs ([k <= 0], no flows). *)

val useful_vertices : Tdmd.Instance.t -> int array
(** Vertices lying on at least one flow path, ascending — the only
    vertices a move can gain anything from. *)

val greedy_cover : Tdmd.Instance.t -> k:int -> int list
(** [Cover_fixup.within] from an empty start: the set-cover greedy's
    picks, at most [k] of them, used as the common seed and as the
    deadline-zero fallback answer.  The greedy is not complete, so that
    answer can leave flows unserved although a feasible placement within
    budget exists (the instance in {!Tdmd.Cover_fixup}'s doc). *)

val eval : Tdmd.Inc_oracle.t -> int list -> int * bool
(** [(volume, feasible)] of a vertex list, evaluated on a scratch
    oracle ([reset] + [add]s — the oracle's prior state is discarded). *)

val sorted_verts : Tdmd.Inc_oracle.t -> int list
(** The oracle's current placement as a sorted vertex list. *)

val compare_verts : int list -> int list -> int
(** Lexicographic order on sorted vertex lists — the deterministic
    tie-break used everywhere two equal-volume placements must be
    ordered. *)
