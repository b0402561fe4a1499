(* Feasibility of TDMD deployments (paper Theorem 1), wired to the
   set-cover reduction so the hardness construction itself runs:
   deciding whether some deployment of k boxes serves every flow is
   set cover.  Checking a given deployment is
   [Tdmd.Allocation.is_feasible]. *)

let to_setcover instance =
  Reduction.of_flows
    ~vertex_count:(Tdmd.Instance.vertex_count instance)
    (Tdmd.Instance.flows instance)

(* Exact, so small instances only (at most 62 flows). *)
let feasible_exists instance ~k = Setcover.decision (to_setcover instance) ~k

let min_middleboxes instance =
  match Setcover.exact (to_setcover instance) with
  | Some cover -> List.length cover
  | None -> invalid_arg "Feasibility.min_middleboxes: some flow visits no vertex"

(* The ln(n)-approximate cover: an upper bound on [min_middleboxes] at
   any scale. *)
let greedy_cover instance =
  Option.map Tdmd.Placement.of_list (Setcover.greedy (to_setcover instance))
