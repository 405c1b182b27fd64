(** Linear-programming front end.

    A mutable problem builder in the style of classic LP libraries
    (the paper's implementation used lpsolve): create variables with
    bounds and objective coefficients, add linear constraints, then
    {!solve}.  General bounds are reduced to non-negative standard
    variables: positive lower bounds are shifted away and free
    variables are split. *)

type t
type var

type status = [ `Optimal | `Infeasible | `Unbounded | `Iteration_limit ]

type solution = {
  status : status;
  objective : float;  (** Meaningful only when [status = `Optimal]. *)
  value : var -> float;
      (** Optimal value of a variable; [0.] unless [`Optimal]. *)
}

type direction = Maximize | Minimize

val create : ?direction:direction -> unit -> t
(** Fresh problem; default direction is [Maximize]. *)

val add_var : ?lb:float -> ?ub:float -> ?obj:float -> ?name:string -> t -> var
(** New variable with bounds [\[lb, ub\]] (defaults [0., infinity]) and
    objective coefficient [obj] (default [0.]).  [lb] may be
    [neg_infinity] (free variable) and [ub] [infinity].
    @raise Invalid_argument if [lb > ub] or called after {!solve}. *)

val add_le : t -> (float * var) list -> float -> unit
(** [add_le p terms rhs] adds [Σ coef·var ≤ rhs].  Repeated variables
    in [terms] are summed. *)

val add_ge : t -> (float * var) list -> float -> unit
val add_eq : t -> (float * var) list -> float -> unit

val n_vars : t -> int
val n_constraints : t -> int

val var_name : t -> var -> string

val solve :
  ?dense:bool -> ?eps:float -> ?max_iters:int -> ?metrics:Solver_metrics.t -> t -> solution
(** Solves the problem.  The builder is frozen afterwards.

    The solver follows from the problem's shape.  A box LP that is
    feasible at its lower-bound origin — every row a [≤] with
    non-negative rhs once positive lower bounds are shifted away, and
    no free variable, as every flow LP is — goes to {!Sparse}, the
    bounded-variable revised simplex, which keeps upper bounds native.
    Any other problem goes to the dense two-phase {!Simplex}, with
    finite upper bounds as explicit rows.  [dense] (default [false])
    sends every problem to {!Simplex}: the independent reference the
    verifier and the tests compare {!Sparse} against.

    [metrics] accumulates the backend's work counts (iterations,
    pivots, bound flips, refactorizations) into the given record; the
    same counts always feed the [lp.*] observability counters, and the
    whole call is wrapped in an ["lp.solve"] span (with solver, vars
    and rows args) when {!Tin_obs.Obs} tracing is enabled. *)
