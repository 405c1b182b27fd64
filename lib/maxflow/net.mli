(** Capacitated flow network with residual arcs.

    The classic static max-flow substrate.  The paper's maximum-flow
    problem reduces to static max flow on a time-expanded network
    (Akrida et al., CIAC 2017); {!Time_expand} builds that network and
    {!Dinic} / {!Push_relabel} solve it, giving an oracle that is
    independent of the LP path.

    Arcs are stored in pairs: arc [2k] is the forward arc, arc
    [2k + 1] its residual twin; solvers mutate residual capacities in
    place.  Capacities may be [infinity] (holdover arcs). *)

type t
type arc = int

val create : n:int -> t
(** Network with [n] nodes ([0 .. n-1]) and no arcs. *)

val add_node : t -> int
(** Adds a node, returning its id. *)

val add_arc : t -> src:int -> dst:int -> cap:float -> arc
(** Adds a forward arc and its zero-capacity residual twin; returns the
    forward arc id.  @raise Invalid_argument on negative or NaN
    capacity, or node ids out of range. *)

val n_nodes : t -> int
val n_arcs : t -> int
(** Number of forward arcs. *)

val capacity : t -> arc -> float
(** Original capacity of a forward arc. *)

val flow : t -> arc -> float
(** Current flow on a forward arc (0 before any solver ran). *)

val copy : t -> t
(** Deep copy, so several solvers can run on the same network. *)

val reset : t -> unit
(** Zeroes all flow. *)

(** {1 Residual-graph access (used by the solvers)} *)

val dst : t -> arc -> int
(** Destination node of an arc (for residual twins: the original
    source). *)

val twin : arc -> arc
(** The paired residual arc ([a lxor 1]). *)

val residual : t -> arc -> float
(** Remaining capacity of an arc in the residual graph. *)

val augment : t -> arc -> float -> unit
(** [augment net a f] pushes [f] units along [a]: decreases its
    residual capacity and increases the twin's. *)

val adjacency : t -> int array * arc array
(** [(start, arcs)]: the arcs leaving node [v] in the residual graph
    (forward arcs and residual twins, in insertion order) are
    [arcs.(start.(v)) .. arcs.(start.(v + 1) - 1)].  Built once and
    cached until the next {!add_node}/{!add_arc}; the arrays must not
    be mutated. *)
