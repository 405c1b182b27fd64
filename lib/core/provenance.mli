(** Flow provenance: {e where} did each unit of buffered flow
    originate?

    The greedy scan (Section 3) tells an investigator how much arrived
    at an account; this module additionally tracks which interactions
    that quantity was born at, following the model of the same
    authors' follow-up paper "Provenance in Temporal Interaction
    Networks" (arXiv:2110.05041).  Every vertex buffer is annotated
    with a provenance vector — masses keyed by origin — and each
    interaction propagates the sender's annotations to the receiver.
    When a sender's buffer cannot cover an interaction's quantity, the
    deficit is {e born} fresh at that interaction; which of the
    buffered units move when the buffer {e can} cover it is decided by
    a pluggable selection policy:

    - {!Lrb} (least recently born): oldest-born units move first — the
      FIFO reading an FIU uses for "first money in is first money
      out";
    - {!Mrb} (most recently born): newest-born units move first;
    - {!Proportional}: every origin contributes pro rata — the
      order-insensitive reference policy, whose per-vertex totals are
      independent of selection order by construction.

    Memory is bounded per buffer by a configurable entry budget:
    whenever a buffer exceeds it, the two oldest entries are merged
    into a coarser origin group (two origins born at the same vertex
    collapse to that {!origin.Vertex}; otherwise to {!origin.Any}), so
    a buffer degrades gracefully from interaction-level to
    vertex-level to fully aggregated attribution instead of growing
    without bound.

    The scan runs over the flat {!Compact.t} substrate that
    {!Io.load} returns, in its global interaction order (time,
    quantity, src, dst).  In source-rooted mode the scalar side
    mirrors {!Greedy} float-op-for-float-op: the absorbed total equals
    {!Greedy.flow} on the equivalent {!Graph.t} bit for bit, which the
    test suite and the verify lattice check. *)

type policy = Lrb | Mrb | Proportional

val policy_name : policy -> string
(** ["lrb"], ["mrb"] or ["prop"]. *)

val policy_of_string : string -> policy option
(** Inverse of {!policy_name}; also accepts ["proportional"].
    Case-insensitive. *)

type origin =
  | Inter of {
      index : int;  (** Scan-order interaction index (as {!Decompose.leg.inter}). *)
      src : Graph.vertex;
      dst : Graph.vertex;
      time : float;
      qty : float;
    }  (** Born at one specific interaction. *)
  | Vertex of Graph.vertex
      (** Aggregated: born at some interaction(s) sent by this vertex. *)
  | Any  (** Fully aggregated: origin no longer tracked. *)
(** An origin group, from finest to coarsest.  Coarser groups appear
    only after budget spills. *)

val compare_origin : origin -> origin -> int
(** Total deterministic order: [Any < Vertex _ < Inter _], then by
    vertex / index. *)

val describe_origin : origin -> string
(** Human-readable one-liner for reports. *)

type t = {
  totals : (Graph.vertex * float) list;
      (** Final buffered quantity per vertex, ascending by label.  In
          source-rooted mode this equals {!Greedy.buffers} on the
          equivalent {!Graph.t} (the source reports [infinity]). *)
  vectors : (Graph.vertex * (origin * float) list) list;
      (** Final provenance vector per vertex, ascending by label; each
          vector is aggregated by origin and sorted by descending
          mass (ties by {!compare_origin}).  Masses sum to the
          vertex's total up to floating-point drift. *)
  spills : int;  (** Budget-forced coarsening merges performed. *)
  peak_entries : int;  (** Peak live provenance entries across all buffers. *)
}

val default_budget : int
(** Default per-buffer entry budget ([64]). *)

val run :
  ?policy:policy ->
  ?budget:int ->
  ?source:Graph.vertex ->
  ?absorb:Graph.vertex ->
  ?trace:(int -> (origin * float) list -> unit) ->
  Compact.t ->
  t
(** Scan the network once, propagating provenance vectors.

    Without [?source] (open-world mode) every interaction transfers
    its full quantity: the part covered by the sender's buffer carries
    the buffered provenance selected by [policy], and the deficit is
    born at that interaction.  With [?source] (source-rooted mode)
    only quantity reaching a vertex from the source circulates — the
    scan mirrors {!Greedy} float-op-for-float-op, the source's buffer
    is infinite, and all births happen on interactions the source
    sends.

    [?absorb] names a vertex that never re-sends what it received
    (the greedy sink rule); pass the sink here to make its total the
    greedy flow value.  [?trace] is called for every interaction that
    moved quantity, with the scan-order index and the moved
    provenance batch.  [budget] is the per-buffer entry budget
    (default {!default_budget}; at least 2).

    [source] and [absorb] are raw labels, as everywhere; one absent
    from the network simply never sends nor receives.

    @raise Invalid_argument if [budget < 2] or [source = absorb]
    (compared as labels, present in the network or not). *)
