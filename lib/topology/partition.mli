(** Deterministic vertex partitioner for sharding the placement service.

    A partition assigns every vertex of a topology to exactly one shard
    by multi-source BFS from a seed list (the highest-degree vertices by
    default).  The assignment is a pure
    function of [(graph, seeds, shards)]: the queue runs in insertion
    order and neighbours are visited in sorted order, so a recovered or
    restarted server recomputes the identical partition. *)

type t

val shards : t -> int
(** Number of shards (>= 1). *)

val vertex_count : t -> int

val owner : t -> int -> int
(** [owner t v] is the shard owning vertex [v].
    @raise Invalid_argument if [v] is outside the graph. *)

val trivial : n:int -> t
(** The single-shard partition over [n] vertices: everything is shard 0. *)

val make : ?seeds:int list -> Tdmd_graph.Digraph.t -> shards:int -> t
(** [make ?seeds g ~shards] partitions [g]'s vertices into [shards]
    regions grown by BFS from [seeds] (seed [i] roots shard
    [i mod shards]).  With no seeds (or an empty list) the [shards]
    highest-degree vertices seed the regions.  Unreachable vertices
    fall back to shard 0.
    @raise Invalid_argument if [shards < 1] or a seed is out of range. *)

type ownership =
  | Owned of int  (** every path vertex lives in this shard *)
  | Cross of { home : int; spans : int list }
      (** the path spans [spans] (sorted, >= 2 shards); [home] is the
          shard owning the most path vertices, ties to the lowest id *)

val ownership : t -> int array -> ownership
(** Which shard(s) a flow path touches.
    @raise Invalid_argument on an empty path. *)

val counts : t -> int array
(** Vertices per shard, indexed by shard id. *)
