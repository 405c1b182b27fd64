(** Push–relabel (Goldberg–Tarjan) maximum flow with the
    highest-label selection rule and the gap heuristic, O(V²·√E).

    The second static max-flow implementation in this repository, and
    the one independent of {!Dinic}'s shortest augmenting paths.  On
    the long, narrow time-expanded networks produced by
    {!Time_expand}, Dinic usually wins; push–relabel is included both
    as a cross-validation oracle and because it is the stronger
    algorithm on dense residual graphs (the classic trade-off the
    max-flow literature documents — see the survey the paper cites
    [Goldberg & Tarjan, CACM 2014]). *)

val max_flow : Net.t -> source:int -> sink:int -> float
(** Computes the maximum [source]→[sink] flow, mutating the network's
    residual capacities.  Returns the flow value.
    @raise Invalid_argument if [source = sink]. *)
