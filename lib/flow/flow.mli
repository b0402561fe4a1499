(** Unsplittable flows with pre-determined paths (paper Sec. 3.1).

    A flow [f] has an integral initial rate [r_f] (the DP of Sec. 5.1 is
    pseudo-polynomial in the rates, so the model keeps them integral; use
    {!Tdmd.Scaled_dp} for fractional data) and an explicit vertex path
    [p_f] from [src_f] to [dst_f]; a vertex's path index is the paper's
    l_v(f), the number of edges from the source to [v]. *)

type t = private {
  id : int;
  rate : int;         (** initial traffic rate r_f > 0 *)
  path : int array;   (** vertex sequence, length >= 1 *)
}

val make : id:int -> rate:int -> path:int list -> t
(** @raise Invalid_argument on empty paths, non-positive rates, repeated
    vertices in the path, or consecutive duplicates. *)

val src : t -> int
val hop_count : t -> int
(** |p_f|: number of edges. *)

val validate : Tdmd_graph.Digraph.t -> t -> (unit, string) result
(** Checks every consecutive pair is an arc of the graph. *)

val merge_same_source : t list -> t list
(** Paper Sec. 5 (proof of Thm. 5): flows sharing the same leaf source
    (and hence the same path to the root) are treated as one flow whose
    rate is the sum.  Merges flows with identical paths; ids are
    renumbered densely in first-appearance order. *)

val total_path_volume : t list -> int
(** Σ_f r_f · |p_f| — the unprocessed bandwidth consumption, i.e. the
    paper's max b(P) (Lemma 1). *)
