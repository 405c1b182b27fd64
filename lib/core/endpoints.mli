(** Source/sink plumbing (Section 4, Figure 4).

    The flow-computation algorithms assume a single source (no
    incoming edges) and a single sink (no outgoing edges).  This module
    provides the paper's two constructions for meeting that
    assumption:

    - {!add_synthetic}: add a synthetic super-source wired to every
      original source by an edge carrying a single interaction at time
      [-∞] with quantity [∞], and symmetrically a super-sink collecting
      every original sink at time [+∞];
    - {!split}: split one vertex into a source half (keeping the
      outgoing edges) and a sink half (keeping the incoming edges) —
      the construction behind cyclic pattern instances and the seed
      subgraphs of Figure 10, where flow "from 143 back to 143" is
      measured. *)

type endpoints = { graph : Graph.t; source : Graph.vertex; sink : Graph.vertex }

val add_synthetic : ?source:Graph.vertex -> ?sink:Graph.vertex -> Graph.t -> endpoints
(** Returns a graph with exactly one source and one sink.  If the
    input already has a unique source (resp. sink), no vertex is added
    on that side.  Fresh vertex ids are chosen above the current
    maximum.

    [?source] (resp. [?sink]) pins that terminal to a vertex of the
    graph: no synthetic vertex is added on its side, and the pinned
    vertex is left out of the opposite synthetic terminal's feeders,
    so a pinned source that is also one of the graph's sinks is not
    wired to the super-sink by an infinite edge.
    @raise Invalid_argument on an empty graph, on a pinned vertex not
    in the graph, or when a synthetic side has no vertex to attach
    (every vertex lies on a cycle, or the only candidate is the pinned
    opposite terminal). *)

val split : Graph.t -> vertex:Graph.vertex -> endpoints
(** [split g ~vertex:a] replaces [a] by a source half [s] (with [a]'s
    outgoing edges) and a sink half [t] (with [a]'s incoming edges).
    The flow from [s] to [t] in the result is the paper's flow from
    [a] back to itself through the rest of the graph.
    @raise Invalid_argument if [vertex] is not in the graph. *)
