(** Static maximum flow, and the temporal maximum flow it computes.

    The paper's maximum flow in a temporal interaction network is a
    static maximum flow on a time-expanded network (Akrida et al.,
    "Temporal flows in temporal networks", the PTIME argument of
    Section 4.2.1).  {!Time_expand} builds the textbook expansion, two
    nodes per (vertex, event time), and stays as the reference oracle;
    {!max_flow} builds a smaller network with exactly the LP's rows and
    is the engine the Pre/PreSim pipelines finish with;
    {!max_flow_edges} builds the same network straight from a
    {!Compact.t}'s edge slices and solves every pattern instance. *)

module Net = Net
module Dinic = Dinic
module Push_relabel = Push_relabel
module Time_expand = Time_expand

val max_flow : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> float
(** The maximum [source]→[sink] flow, by {!Dinic} on the
    send-time-compressed time-expanded network:

    - one node per (vertex, distinct send time) for every vertex but
      the source and the sink, matching the buffer constraints of the
      LP formulation ([Tin_core.Lp_flow]); a master source and a
      master sink stand for the designated vertices;
    - infinite-capacity carry arcs chain each vertex's nodes in time
      order;
    - an interaction [(t, q)] on [(v, u)] is an arc of capacity [q]
      from [v]'s node at [t] into [u]'s first node whose send time is
      strictly greater than [t] (a quantity received at [t] cannot be
      spent before [t]);
    - interactions sent by the sink or into the source, and arrivals
      after the receiver's last send, get no arc: they cannot carry
      flow to the sink;
    - infinite quantities get {!Time_expand}'s big-M, the sum of all
      finite quantities plus one.

    Agrees with {!Time_expand.max_flow} and the LP within the
    {!Tin_util.Fcmp} policy.  A source or sink absent from the graph
    gives 0.
    @raise Invalid_argument if [source = sink]. *)

val max_flow_edges :
  Compact.t -> Compact.edge_id list -> source:Compact.vertex -> sink:Compact.vertex -> float
(** [max_flow_edges net eids ~source ~sink] is {!max_flow} on the
    subgraph of [net] formed by the edges [eids] (duplicates are
    harmless), with compact vertex ids for the terminals.  The
    interactions are read from [net]'s columns; no {!Graph.t} is built,
    and both entries share one network builder.

    When [source = sink] the vertex is split, as
    [Tin_core.Endpoints.split] does: its out-edges leave the master
    source and its in-edges enter the master sink, so the result is the
    flow from the vertex back to itself (a cyclic pattern instance).
    Otherwise sends of the sink and receipts of the source get no arc,
    as in {!max_flow}.  A terminal that is no endpoint of the edges
    gives 0.  Self-loops are tolerated: in split mode a self-loop of
    the split vertex goes straight from the master source to the master
    sink. *)
