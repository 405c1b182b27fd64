(** Graph simplification (Section 4.2.4, Algorithm 2, Lemma 3).

    A chain [s → v1 → … → vk] hanging off the source can be collapsed
    into a single edge [(s, vk)]: reserving quantity at [s] or at any
    interior chain vertex can never increase the flow that ultimately
    reaches the sink, so the chain's contribution is exactly what the
    greedy scan delivers into [vk].  The replacement edge carries one
    interaction per positive greedy arrival at [vk]; if an [(s, vk)]
    edge already exists the sequences are merged, which can expose new
    chains — the pass iterates to a fixpoint.

    The LP that remains after simplification has one variable per
    surviving non-source interaction, which is where the cost reduction
    comes from (the paper's Figure 7 goes from 9 variables to 3). *)

type result = {
  graph : Graph.t;
  chains_reduced : int;  (** Number of chain-collapse steps performed. *)
  removed_vertices : int;  (** Interior chain vertices eliminated. *)
}

val run : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> result
(** Simplifies a DAG.  The input is unchanged.
    @raise Invalid_argument if the graph is cyclic or [source = sink]. *)

val reduce_chain_cols :
  k:int -> times:floatarray -> qtys:floatarray -> pos:int array -> Interaction.t list
(** Collapses a free-standing chain [0 → 1 → … → k] into the
    interaction sequence of its replacement edge [(0, k)]: the greedy
    arrivals at [k] ({!Greedy.arrivals_at_sink} with source [0]).
    Interaction [j] has timestamp [times.(j)], quantity [qtys.(j)] and
    sits on chain edge [pos.(j) → pos.(j) + 1] ([0 ≤ pos.(j) < k]; any
    order; the three arrays must have equal length).  No graph is
    built and no interaction boxed — the pattern path tables
    ({!Tin_patterns.Tables}), which extend precomputed paths one edge
    at a time (Section 5.1), call this once per candidate. *)
