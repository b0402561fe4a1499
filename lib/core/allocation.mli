(** Flow allocation F (paper Sec. 3.1).

    Once the deployment P is fixed, the optimal allocation is forced:
    each flow is served by the deployed middlebox *nearest its source*
    (maximal l_v(f)) — every packet is processed exactly once, as early
    as possible.  Because paths are listed source-first, that middlebox
    is the first placed vertex along the path. *)

type serving =
  | Unserved                       (** no middlebox on the flow's path *)
  | Served_at of { vertex : int; l : int }
      (** serving vertex and its l_v(f) edge offset from the source *)

val serve : Placement.t -> Tdmd_flow.Flow.t -> serving
(** One flow's serving decision, by membership tests on the placement
    list.  The whole-instance functions below build one {!mask} per call
    instead. *)

val mask : Instance.t -> Placement.t -> Bytes.t
(** One byte per vertex, ['\001'] where a middlebox is deployed: O(1)
    membership for a scan over many flows.  Placed vertices outside the
    graph are dropped (no flow path can reach them). *)

val first_in : Bytes.t -> Tdmd_flow.Flow.t -> int
(** Path position of the first vertex the mask marks — the forced
    serving position l_v(f) — or the path length when none is (the flow
    is unserved). *)

val all : Instance.t -> Placement.t -> serving array
(** Indexed like the instance's flow array. *)

val is_feasible : Instance.t -> Placement.t -> bool
(** Every flow served (paper Eq. 4) — the property whose k-budgeted
    check is NP-hard (Theorem 1). *)

val unserved : Instance.t -> Placement.t -> Tdmd_flow.Flow.t list
