(** Greedy flow computation (Section 4.1).

    Interactions are scanned in global time order; each interaction
    [(t, q)] on edge [(v, u)] transfers [min q B(v)] from [v]'s buffer
    to [u]'s (Definition 4).  The designated source has an infinite
    buffer.  The greedy flow of the graph (Definition 5) is the
    quantity buffered at the sink after the scan — computed in time
    linear in the number of interactions.

    Quantity that arrives at a vertex at time [t] becomes usable
    {e strictly after} [t], matching the [t_j < t_i] condition of the
    paper's LP constraint (2); with distinct timestamps (the common
    case, and all of the paper's examples) this coincides with the
    paper's description.

    Interactions sharing a timestamp are scanned in the deterministic
    order of {!Graph.interactions_sorted} — time, then source, then
    destination — which fixes the winner when same-instant transfers
    compete for one buffer.  Zero-quantity interactions move nothing
    and create no buffer entries; self-loops are unrepresentable
    ({!Graph.add_interaction} rejects them), so neither can inflate the
    flow.

    Works on arbitrary directed graphs — acyclicity is not required
    (only the maximum-flow accelerators need DAGs). *)

type transfer = {
  src : Graph.vertex;
  dst : Graph.vertex;
  time : float;
  offered : float;  (** The interaction's quantity [q]. *)
  moved : float;  (** The quantity actually transferred, [min q B]. *)
}
(** One step of the scan — the rows of the paper's Tables 2 and 3. *)

val flow : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> float
(** Greedy flow from [source] to [sink].  [0.] on graphs where the
    sink receives nothing.  @raise Invalid_argument if
    [source = sink]. *)

val flow_trace : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> float * transfer list
(** Greedy flow plus the full transfer log in scan order. *)

val arrivals_at_sink : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> Interaction.t list
(** The interactions (time, moved quantity) that increased the sink's
    buffer, in time order, zero-moves dropped.  This is the interaction
    sequence that the simplification pass (Lemma 3) installs on the
    replacement edge, and that the pattern path tables store. *)

val buffers : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> (Graph.vertex * float) list
(** Final buffer of every vertex after the scan (the source reports
    [infinity]). *)
