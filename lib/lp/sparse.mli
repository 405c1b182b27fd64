(** Sparse bounded-variable revised simplex.

    Solves [max c·x  s.t.  A x ≤ rhs,  0 ≤ x ≤ upper] with [rhs ≥ 0],
    a box LP feasible at the origin.  Upper bounds are native (a
    nonbasic variable sits at either bound and may flip between them
    without a pivot), so they cost no rows.  [A] is stored column-wise
    as sparse (row, coef) lists and no tableau is ever materialized.
    The basis inverse is kept in product form (an eta file) with
    periodic refactorization, so one iteration costs O(nnz) plus the
    eta-file work instead of a dense tableau's O(m·(n+m)).  Pricing is Dantzig over a candidate list
    (partial pricing) with a Bland fallback against cycling.

    Flow LPs (one column per interaction, one row per distinct sending
    timestamp, ±1 coefficients) are the intended workload; any
    origin-feasible box-constrained LP fits. *)

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Unbounded
  | Iteration_limit

val solve :
  ?eps:float ->
  ?max_iters:int ->
  ?refactor_every:int ->
  ?metrics:Solver_metrics.t ->
  c:float array ->
  upper:float array ->
  rhs:float array ->
  cols:(int * float) list array ->
  unit ->
  outcome
(** [solve ~c ~upper ~rhs ~cols ()] maximizes [c·x] subject to
    [A x ≤ rhs] and [0 ≤ x ≤ upper], where column [j] of [A] is given
    by [cols.(j)] as a list of [(row, coef)] pairs.  Duplicate [(row,
    coef)] entries within a column are summed.  [rhs] entries must be
    non-negative (the origin must be feasible) and
    [upper] entries non-negative ([infinity] allowed).
    [refactor_every] bounds the eta-file length between
    refactorizations (default 64; mainly a testing knob).

    [max_iters] is an exact budget on the work passes (pivots, bound
    flips and defensive refactorize-retries): a run needing [p] of them
    returns its result with [max_iters = p] and [Iteration_limit] with
    [max_iters = p - 1].  [metrics] accumulates the work counts into
    the given record (see {!Solver_metrics}); the same counts also feed
    the [lp_iters] / [lp_pivots] / [lp_bound_flips] /
    [lp_refactorizations] / [lp_eta_resets] labeled observability
    counters with [solver="sparse"] ({!Tin_obs.Obs}).
    @raise Invalid_argument on arity mismatches, negative [rhs] or
    [upper], or out-of-range row indices. *)
