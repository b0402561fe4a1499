(** Incremental decrement/bandwidth oracle: the one oracle behind every
    solver and the churn engine.

    Every greedy-style solver (GTP/CELF, HAT's merge loop, the local
    search, the feasibility fix-up, the portfolio) repeatedly asks
    "what does deploying or retiring one middlebox do to the
    objective?", and so does the churn engine ({!Incremental}) while
    flows arrive and depart.  Answering by rescanning every flow costs
    O(|F| · avg-path-length) per query; GTP/CELF issue O(|V|²) such
    queries and HAT one per heap pair, so the oracle dominates
    end-to-end wall-clock (paper Theorem 3's O(|V|² log |V|) bound
    assumes a cheap marginal oracle).

    The oracle reads a vertex → (flow slot, path position) incidence
    laid out as one int slab per vertex, with rate, hop count and path
    indexed by slot (the {!Instance.incidence} layout), and maintains,
    per flow, the earliest deployed position on its path.  Then:

    - {!add} / {!remove} commit a deployment change in O(flows through v)
      (plus, on removal, the rescan to each flow's next deployed vertex);
    - {!undo} reverts the most recent [add]/[remove], enabling cheap
      multi-vertex what-if probes (HAT's Δb, the annealer's moves);
    - {!marginal_volume} and {!newly_served} answer a what-if query in
      O(1) from a {e gain ledger}: per vertex, the diminished volume a
      box there would add and the number of unserved flows through it;
      {!argmax} picks the best vertex in one pass over it.  GTP/CELF,
      the cover fix-up and the churn engine's arrivals ask through them;
    - {!scan_moves} and {!best_replacement} price a deployment without
      one deployed box off the ledger, read-only, in O(path lengths of
      the flows that box serves): the local search's and the churn
      rebalancer's swap candidates;
    - {!disjoint_paths} packs pairwise vertex-disjoint flow paths in
      O(Σ_f |p_f| + |V|), a lower bound on the size of any deployment
      that serves every flow: the cover fix-up's proof that no shorter
      prefix can be repaired within the budget.

    Each half of the ledger (the gains, the unserved counts) is built by
    the first query that reads it after {!create}, {!of_list}, {!empty}
    or {!reset}: the gains in one pass over every flow's path prefix,
    O(|V| + Σ path lengths), the counts in one pass over the unserved
    flows' paths.  An oracle made by {!create} whose deployment is empty
    (after {!create} or {!reset}, or once every box is retired) copies
    both halves from its instance instead, in O(|V|): the gains from
    [Instance.incidence]'s [empty_gain], the counts from its [degree],
    since every flow is unserved then.  From then on every {!add}, {!remove}, {!undo},
    {!add_flow} and {!remove_flow} keeps the built halves current, at
    O(path prefix up to the later of the old and new serving positions)
    for each flow whose serving position moves (plus one pass over the
    path when the flow goes from served to unserved or back) — the path
    prefixes of the flows the edit touches, not the slab of every
    candidate.  An oracle that is only edited and never asked (HAT's Δb
    probes, the annealer's walk, {!Incremental.restore}) builds neither
    half.  The cover fix-up asks only cover questions, so it builds at
    most the counts; it edits the deployment it is handed rather than
    resetting, so the halves its caller built (GTP's gains, both of the
    churn engine's) stay current through it.  The ledger
    arithmetic is on ints ([Int.min], never Stdlib's polymorphic [min]),
    so each term costs an integer compare, not a runtime call.

    Two constructors fix who owns the incidence.  {!create} reads the
    instance's incidence, built once by [Instance.make] and shared
    read-only by every oracle over that instance (in any domain), so an
    oracle allocates only its deployment state.  {!empty} owns its
    incidence and accepts {!add_flow} / {!remove_flow}, reusing vacated
    slots — the churn engine's oracle.  An oracle over an instance
    refuses flow edits, so a shared incidence is never written.

    All state is kept in {e integer} diminished-volume units (see
    {!Bandwidth.diminished_volume}), and every decision compares them;
    {!bandwidth} renders b from them only when asked.  Every answer
    therefore agrees {e exactly} with a from-scratch naive scan — the
    invariant the CELF "cached gains are upper bounds" acceptance test
    depends on, and what the differential tests in
    [test/test_inc_oracle.ml] and [test/test_churn.ml] lock in. *)

type t

val create : Instance.t -> t
(** Empty deployment over the instance's flows.  O(|V| + |F|): the
    incidence comes with the instance, so an oracle allocates only its
    per-run state — a deployed byte per vertex, a serving position per
    flow and the ledger's two ints per vertex (not yet filled; the first
    query copies the instance's empty ledger into them).  U comes from
    {!Instance.total_path_volume}.  Oracles
    over one instance are independent and may run in different domains
    at once. *)

val of_list : Instance.t -> int list -> t
(** [create] plus the given deployment, with an empty undo journal. *)

val empty : vertices:int -> lambda:float -> t
(** No flows and no deployment over [vertices] vertices, owning its
    incidence: the oracle for {!add_flow} / {!remove_flow}.
    @raise Invalid_argument if λ lies outside [0, 1] (NaN included). *)

val reset : t -> unit
(** Return to the empty deployment and clear the undo journal.  Each
    half of the ledger is rebuilt by the next query that reads it: for
    an oracle made by {!create}, copied from the instance. *)

(** {1 Deployment edits} *)

val add : t -> int -> unit
(** Deploy on a vertex (no-op if already deployed).  Journaled. *)

val remove : t -> int -> unit
(** Retire a vertex (no-op if not deployed).  Journaled. *)

val undo : t -> unit
(** Revert the most recent {!add}/{!remove} (no-ops revert to nothing).
    @raise Invalid_argument when the journal is empty. *)

(** {1 Flow edits}

    Both run in O(path + flows through the path's vertices), serve the
    flow against the current deployment, and clear the undo journal. *)

val add_flow : t -> Tdmd_flow.Flow.t -> int
(** Add a flow (path vertices must lie in the graph) and return its
    slot, the handle {!remove_flow} takes.
    @raise Invalid_argument on an oracle made by {!create}. *)

val remove_flow : t -> int -> unit
(** Remove the flow in a slot returned by {!add_flow}; the slot may be
    handed out again.
    @raise Invalid_argument on an oracle made by {!create}. *)

(** {1 Queries} *)

val mem : t -> int -> bool
val size : t -> int
(** Number of deployed vertices. *)

val placement : t -> Placement.t

val diminished_volume : t -> int
(** Equals [Bandwidth.diminished_volume] of the current deployment. *)

val bandwidth : t -> float
(** b(P, F): {!Bandwidth.render} of {!diminished_volume} against the
    flows' Σ_f r_f·|p_f|, in O(1). *)

val marginal_volume : t -> int -> int
(** Increase of {!diminished_volume} if the vertex were deployed (0 when
    already deployed).  O(1) once the ledger's gains are built; the
    first such query builds them.  Changes no answer: the deployment,
    the journal and every other query read the same afterwards. *)

val newly_served : t -> int -> int
(** Number of currently-unserved flows through the vertex, i.e. the
    drop of {!unserved_count} if it were deployed (0 when already
    deployed).  Like {!marginal_volume}: O(1) off the ledger's counts,
    changes no answer. *)

val serves : t -> int -> bool
(** Is the vertex deployed and the serving box of at least one flow? *)

type count = Marginal_volume | Newly_served
(** One of the ledger's two per-vertex counts: {!marginal_volume} or
    {!newly_served}. *)

val argmax : t -> count -> int option
(** The vertex with the highest strictly positive count, lowest vertex
    on ties; [None] when no count is positive.  One pass over the
    ledger's array.  With [Marginal_volume] it is the best box to add:
    each round of {!Gtp.greedy} and the churn engine's best-marginal
    pick.  With [Newly_served] it is the best cover: each covering pick
    of {!Cover_fixup.within}. *)

val unserved_count : t -> int
val is_feasible : t -> bool
(** All flows pass a deployed vertex? *)

val disjoint_paths : t -> at_most:int -> int
(** [disjoint_paths t ~at_most] packs pairwise vertex-disjoint flow
    paths greedily, shortest path first (lowest slot on ties), and
    returns how many it holds, stopping as soon as it holds [at_most].
    A zero-hop flow's path is its one vertex and counts like any other;
    vacated slots hold no path.  Every deployment that serves every
    flow puts a distinct vertex on each packed path, so
    [disjoint_paths t ~at_most:(b + 1) > b] proves that no deployment
    of at most [b] vertices is feasible: {!Cover_fixup.within}'s early
    exit.  The converse does not hold, since a packing can fall short
    of the fewest vertices that serve every flow.  O(Σ_f |p_f| + |V|):
    a counting sort by hop count, then one pass over the paths.  On an
    oracle made by {!create} the first call over an instance packs every
    flow and stores the size with the instance, so later calls over it,
    from any oracle and any domain, answer in O(1).  It reads only the
    flows, not the deployment, and changes no answer. *)

(** {1 Swap pricing}

    Both swap searches — the local search's ({!Local_search.refine}) and
    the churn rebalancer's ({!Incremental.rebalance}) — price "this
    deployment without deployed box [u]" without editing it.  Only the
    flows [u] serves move: each would be served next at its next
    deployed position, or not at all.  One pass over those flows' paths
    writes the change in diminished volume and per-vertex corrections to
    the ledger (the shifted gain below [u]'s position, the new gain
    between [u] and the next box, one more uncovered flow on each path
    left unserved) into scratch arrays that the oracle allocates on its
    first swap query and keeps.  A vertex on none of those paths keeps
    its ledger entry.  No correction is negative — removing a box never
    lowers a marginal (Theorem 2) — so the undeployed vertex with the
    highest ledger gain (lowest vertex on ties), valued with its own
    correction, beats or ties every untouched vertex, and the best
    candidate is the best of it and the touched vertices.  That vertex
    is found in one pass over the ledger by the first swap query after
    any edit ({!add}, {!remove}, {!undo}, {!reset}, {!add_flow},
    {!remove_flow}) and reused until the next.  Neither query changes
    an answer, the deployment, the ledger or the undo journal. *)

type move = {
  mutable outgoing : int;  (** box retired; −1 for a pure addition *)
  mutable incoming : int;  (** box deployed; −1 while no move qualifies *)
  mutable after : int;     (** {!diminished_volume} after the move *)
  mutable probes : int;    (** candidates scored, over every scan *)
  mutable evaluations : int;
      (** candidates that keep every flow served, over every scan *)
}

val no_move : unit -> move
(** No move yet and zero counts. *)

val scan_moves : t -> outgoing:int -> current:int -> move -> unit
(** [scan_moves t ~outgoing ~current m] scores each move of the box at
    [outgoing] (a deployed vertex; −1 scores pure additions) to an
    undeployed vertex other than [outgoing], against the deployment
    without [outgoing].

    Each candidate adds one to [m.probes] (|V| − |P| in all).  A
    candidate that leaves every flow served (none was unserved without
    [outgoing], or it serves every flow that was) adds one to
    [m.evaluations]; its volume [d] is the {!diminished_volume} after
    the move.  The highest such [d], lowest vertex on ties, replaces
    [m]'s move when [m.incoming < 0 || d > m.after] and [d > current],
    and only when {!Bandwidth.diminishes} λ: at λ = 1 no move is taken.
    So over successive scans the first strictly better move wins,
    exactly as when each candidate, in increasing vertex order, is
    applied with {!remove}/{!add}, scored and undone.

    When every flow is served and removing [outgoing] strands none, the
    best candidate is the highest marginal volume without [outgoing]
    (see above).  When removing it strands flows, only vertices on the
    stranded paths can serve them again.  A deployment that leaves flows
    unserved is scored by a pass over every vertex.  Costs O(Σ over
    flows served at [outgoing] of |p_f|) (plus the ledger build on a
    first query and the O(|V|) search for the best undeployed vertex
    once per deployment), or O(|V|) more on that pass.  The oracle ends
    as it started.
    @raise Invalid_argument when [outgoing >= 0] is not deployed. *)

type replacement = {
  volume : int;    (** {!diminished_volume} without the box *)
  unserved : int;  (** {!unserved_count} without the box *)
  incoming : int;
      (** {!argmax} [Marginal_volume] without the box (the box itself
          competes as an undeployed vertex); −1 when no marginal is
          positive *)
  gain : int;      (** [incoming]'s {!marginal_volume} without the box; 0 for none *)
  served : int;    (** [incoming]'s {!newly_served} without the box; 0 for none *)
}

val best_replacement : t -> int -> replacement
(** [best_replacement t u] answers, for deployed [u], what {!remove}
    [t u] followed by {!argmax}, {!marginal_volume} and {!newly_served}
    would read, without editing [t]: the churn rebalancer's swap
    candidate for [u].  Costs O(Σ over flows served at [u] of |p_f|),
    with the same first-query and once-per-deployment costs as
    {!scan_moves} and never a pass over every vertex.
    @raise Invalid_argument when [u] is not deployed. *)
