(** The pattern catalog of the experimental evaluation (Figure 12) and
    both search strategies — graph browsing (GB, Section 5.1) and
    precomputation-based (PB, Section 5.2/5.3) — for each pattern.

    Rigid patterns (reconstructed from the paper's prose; the figure
    itself is unreadable in the source):
    - [P1]  2-hop chain   [a→b→c]
    - [P2]  2-hop cycle   [a→b→a]
    - [P3]  3-hop cycle   [a→b→c→a]
    - [P4]  3-hop cycle with a return chord [b→a]  (greedy-insoluble:
            [b] has two outgoing edges; flow needs a max-flow solve)
    - [P5]  "flower": a 2-hop and a 3-hop cycle joined at [a]
            (pure merge-join of the L2 and L3 tables)
    - [P6]  3-hop cycle with both chords [a→c] and [b→a] — the
            Figure-3 shape after splitting; needs a max-flow solve

    Relaxed patterns (Section 5.3): any number of vertex-disjoint
    parallel paths, flows aggregated per anchor:
    - [RP1] all 2-hop chains [a→*→c], grouped per (a, c)
    - [RP2] all 2-hop cycles at [a], grouped per [a]
    - [RP3] all 3-hop cycles at [a], grouped per [a]

    Every search runs over the compiled {!Compact} network, whose
    vertex ids are raw-label ranks: anchors (pattern vertex 0) are
    visited in ascending label order for every input format, so a
    truncated search ([limit] or time budget) keeps the same instances
    whether the network was loaded from CSV or from its [.tinb]
    snapshot.  {!precompute}, {!gb} and {!pb} raise [Invalid_argument]
    on a network with a self-loop. *)

type rigid = P1 | P2 | P3 | P4 | P5 | P6
type relaxed = RP1 | RP2 | RP3
type pattern = Rigid of rigid | Relaxed of relaxed

val all_rigid : rigid list
val all_relaxed : relaxed list
val all : pattern list

val pattern_name : pattern -> string
val rigid_pattern : rigid -> Pattern.t
(** The underlying labelled DAG of a rigid pattern. *)

val needs_chains : pattern -> bool
(** True for patterns whose PB plan needs the 2-hop-chain table
    ([P1]/[RP1]; also [P6] benefits) — the paper only ran those on
    Prosper Loans, where the chain table fits in memory. *)

type result = {
  instances : int;
  total_flow : float;
  truncated : bool;
      (** The enumeration stopped early (instance limit or time
          budget). *)
  timed_out : bool;  (** Specifically the time budget expired. *)
}

val avg_flow : result -> float

type tables = { l2 : Tables.t; l3 : Tables.t; c2 : Tables.t option }
(** Precomputed tables: cycles are always built, chains optionally. *)

val precompute : ?jobs:int -> ?with_chains:bool -> Compact.t -> tables
(** [jobs] (default 1) shards the per-start-vertex table construction
    across OCaml domains; the tables are identical for every job
    count. *)

val gb :
  ?jobs:int ->
  ?limit:int ->
  ?time_budget_ms:float ->
  ?tables:tables ->
  Compact.t ->
  pattern ->
  result
(** Graph-browsing enumeration with per-instance flow computation.
    [time_budget_ms] interrupts the walk mid-search (the paper
    likewise terminated GB early on its hardest patterns).

    [jobs] (default 1) shards the search by anchor vertex (pattern
    vertex 0) across OCaml domains; a shared atomic instance counter
    enforces [limit] and the deadline globally, and per-chunk results
    merge deterministically in anchor order, so untruncated searches
    return results identical to [jobs:1] — bit-for-bit, including
    float accumulation.  A truncated parallel search may keep a
    different (but still at most [limit]-sized) instance subset.

    [tables] enables the hybrid mode: when the pattern's instances are
    single 2/3-hop chains or cycles — [P1]/[P2]/[P3], their DSL
    equivalents, or the [P5] flower whose two cycles join only at the
    anchor — the per-instance flow is read from the precomputed rows
    instead of rebuilding and re-solving the subgraph.  Patterns the
    tables cannot close ([P4]/[P6], relaxed, general shapes) fall back
    to the ordinary per-instance computation. *)

val pb :
  ?jobs:int ->
  ?limit:int ->
  ?time_budget_ms:float ->
  Compact.t ->
  tables ->
  pattern ->
  result
(** Precomputation-based enumeration, anchor-sharded exactly like
    {!gb} when [jobs > 1].  @raise Invalid_argument when the pattern
    needs the chain table and [tables.c2 = None]. *)

val gb_custom :
  ?jobs:int ->
  ?limit:int ->
  ?time_budget_ms:float ->
  ?tables:tables ->
  Compact.t ->
  Pattern.t ->
  result
(** Graph-browsing enumeration of an arbitrary user pattern (e.g. one
    parsed by {!Pattern.of_string}), with per-instance maximum-flow
    computation — the generic engine behind the rigid catalog.
    [jobs] and [tables] as in {!gb}. *)

val gb_with :
  ?jobs:int ->
  ?limit:int ->
  ?time_budget_ms:float ->
  Compact.t ->
  Pattern.t ->
  (Pattern.mapping -> float) ->
  result
(** Like {!gb_custom} but with a caller-supplied per-instance flow
    function (the mapping array is reused — copy it to retain).  This
    is the raw engine: it exists so tests and experiments can observe
    the search machinery (ticket accounting, deadline behaviour) under
    a controlled instance cost.

    Deadline contract: the time budget is re-checked {e unmasked}
    immediately before each complete binding invokes the flow function
    (see {!Pattern.browse}), so once the budget expires, at most the
    one in-flight instance evaluation completes — overshoot is bounded
    by a single candidate step, not by a shard.  Expiries are counted
    in the [catalog.deadline_hits] observability counter (once per
    search). *)
