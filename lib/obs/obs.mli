(** Domain-safe metrics and tracing substrate ([tin_obs]).

    Named counters, gauges and histograms backed by per-domain sharded
    accumulators (one cell per metric per domain, created through
    domain-local storage and merged on read — no locks on the hot
    path), plus lightweight spans exported as Chrome-trace JSON
    (loadable in [chrome://tracing] / Perfetto), plain JSON, or
    Prometheus text exposition format (served live by
    {!Tin_obs.Serve}).

    Every recording operation is guarded by {!enabled}, a single
    atomic flag read: with observability off (the default) an
    instrumented hot path pays one branch-predictable load per probe
    and allocates nothing.  The instrumentation throughout the
    repository (LP solver iterations and pivots, pipeline stage
    reductions, pattern-search tickets and deadline hits, greedy
    buffer touches, batch chunk timelines, per-solve latency
    histograms) is therefore always compiled in and enabled at runtime
    with [tinflow --metrics] / [--trace FILE] / [--listen PORT].

    Thread-safety: recording is safe from any domain.  {!reset} must
    not race with in-flight instrumented work — call it from the
    coordinating domain between parallel sections.  The read/merge
    operations ({!counters}, {!trace_events}, the exporters) tolerate
    concurrent recording by design: counter cells are written by one
    domain each with monotone values, so a racing read may miss the
    very latest increments but never observes a decreasing value.
    This is what makes live scraping ({!Tin_obs.Serve}) safe from its
    own domain while solver domains keep recording; the property is
    regression-tested by a scrape-during-[map_reduce] test. *)

val enabled : bool Atomic.t
(** The global observability switch (default [false]).  Exposed so
    hot paths can inline the guard; prefer {!enable} / {!disable}. *)

val enable : unit -> unit
val disable : unit -> unit

val tracking : unit -> bool
(** [Atomic.get enabled] — the guard every metric recording call
    evaluates first. *)

val recording : unit -> bool
(** True when spans have somewhere to go: {!enabled} is set {e or} the
    {!Flight} recorder is armed.  This is the guard for span
    instrumentation (and for building span args); metric probes still
    key off {!enabled} alone. *)

val reset : unit -> unit
(** Zeroes every counter and histogram, unsets every gauge, and drops
    all recorded span events and flight-ring contents.  Metric
    identities (registered names) survive. *)

(** Monotonically increasing named event counts. *)
module Counter : sig
  type t

  val make : string -> t
  (** [make name] registers (or finds) the counter named [name].
      Counters are process-global: two [make] calls with the same name
      return the same counter. *)

  type family
  (** A labeled counter family: one metric name, one fixed label key
      list, one time series per label-value combination — the
      Prometheus data model.  [lp_pivots{solver="sparse"}] and
      [lp_pivots{solver="dense"}] are two counters of one family. *)

  val make_labeled : string -> labels:string list -> family
  (** [make_labeled name ~labels] registers (or finds) the family.
      @raise Invalid_argument if [labels] is empty, or if [name] is
      already registered with different label keys. *)

  val labeled : family -> string list -> t
  (** [labeled fam values] is the family member for these label values
      (positionally matching the family's label keys) — a plain
      counter, cached per value combination, so resolve it once
      outside the hot loop.
      @raise Invalid_argument on arity mismatch. *)

  val incr : t -> unit

  val add : t -> int -> unit
  (** No-ops while {!enabled} is false.
      @raise Invalid_argument if [n] is negative — counters are
      monotone (Prometheus counters must never decrease); the check is
      made even while disabled so misuse cannot hide behind the
      flag. *)

  val value : t -> int
  (** Sum over all per-domain cells. *)

  val name : t -> string
  (** The registered name; family members render their labels,
      e.g. [lp_pivots{solver="sparse"}]. *)
end

(** Named point-in-time measurements (queue depths, heap sizes, RSS):
    the last written value wins, unlike a counter's running sum.
    Writes are per-domain cells stamped with a global sequence number;
    reads return the freshest stamp, so concurrent writers settle on
    the last write without hot-path locks. *)
module Gauge : sig
  type t

  val make : string -> t

  type family

  val make_labeled : string -> labels:string list -> family
  val labeled : family -> string list -> t

  val set : t -> float -> unit
  (** No-op while {!enabled} is false. *)

  val add : t -> float -> unit
  (** [add g dx] adjusts the calling domain's cell by [dx] (from the
      domain's own last write, or from [dx] if this domain never
      wrote) and stamps it freshest.  No-op while disabled. *)

  val value : t -> float
  (** The most recently written value across domains; [nan] if the
      gauge was never written (unset gauges are skipped by the
      exporters). *)

  val name : t -> string
end

(** Named streaming summaries (count/mean/stddev/min/max/total),
    backed by one {!Tin_util.Stats.Acc} per domain, merged on read. *)
module Histogram : sig
  type t

  val make : string -> t

  type family

  val make_labeled : string -> labels:string list -> family
  val labeled : family -> string list -> t

  val observe : t -> float -> unit
  (** No-op while {!enabled} is false. *)

  val summary : t -> Tin_util.Stats.summary
  val name : t -> string
end

type event = {
  name : string;
  ts_ns : int64;  (** Start, monotonic ns ({!Tin_util.Timer.now_ns}). *)
  dur_ns : int64;
  tid : int;  (** The recording domain's id — one trace row each. *)
  args : (string * string) list;
  trace_id : string;  (** 32 hex chars; [""] on events recorded without a context. *)
  span_id : string;  (** 16 hex chars identifying this span. *)
  parent_id : string;  (** Enclosing span's id; [""] for roots. *)
}

val span_buffer_cap : unit -> int
(** Per-domain bounded span-buffer capacity (default 262144). *)

val set_span_buffer_cap : int -> unit
(** Change the per-domain span-buffer cap.  Tests use a tiny cap to
    force drops; restore the default afterwards.
    @raise Invalid_argument if not positive. *)

(** Wall-clock spans around instrumented regions, carrying W3C trace
    context: every recorded span gets a fresh span id, inherits the
    trace id of the innermost open span on its domain (or starts a
    fresh trace), and records that enclosing span as its parent — so
    an exported trace reassembles into trees.  Propagation across
    [Domain.spawn] is explicit via {!Trace_ctx}. *)
module Span : sig
  val with_ : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [with_ name f] runs [f ()]; when {!recording} is true, the
      elapsed interval is recorded as a complete event on the calling
      domain's timeline (also when [f] raises) — into the bounded
      trace buffer when {!enabled}, and into the {!Flight} ring when
      armed.  Otherwise this is exactly a guarded call to [f]. *)

  val with_root : ?traceparent:string -> string -> (unit -> 'a) -> 'a
  (** [with_root name f] opens [name] as a {e root} span: under a
      fresh trace id, or — when [traceparent] carries a valid W3C
      value — under the caller's trace id with the remote span as
      parent, stitching this process into a distributed trace.
      Subcommand entry points and HTTP request handlers use this;
      malformed [traceparent] values fall back to a fresh trace. *)

  val current_ids : unit -> (string * string) option
  (** [(trace_id, span_id)] of the innermost open span on this domain
      — what [--log-json] events attach to correlate logs with
      spans. *)

  val current_traceparent : unit -> string option
  (** The current context as a [traceparent] header value, for
      propagation to downstream services (emitted on daemon HTTP
      responses). *)
end

(** Always-on post-mortem flight recorder: a bounded per-domain ring
    of the most recent spans, armed by default and independent of
    {!enabled} — cheap enough to leave on in production ([--trace]
    off), so a SIGUSR2, daemon 5xx or crash can dump "what it was
    doing" after the fact.  Ring wraparound counts {e evictions}
    (normal; exported as [obs_flight_ring_evictions]), a different
    signal from bounded span-buffer {e drops}
    ([obs_dropped_span_events], trace incomplete). *)
module Flight : sig
  val armed : unit -> bool
  val arm : unit -> unit

  val disarm : unit -> unit
  (** Disarming (plus keeping {!enabled} off) restores the strict
      zero-recording path. *)

  val default_capacity : int
  (** Ring slots per domain (4096). *)

  val set_capacity : int -> unit
  (** Resize (and clear) every materialized ring; tests use a tiny
      capacity to force evictions.  @raise Invalid_argument if not
      positive. *)

  val events : unit -> event list
  (** Current ring contents across domains, oldest first. *)

  val evictions : unit -> int
  (** Ring slots overwritten by newer spans since the last {!reset}. *)

  val set_dump_prefix : string -> unit
  (** Path prefix for dump files (default
      [tinflow-flight-<pid>]). @raise Invalid_argument on [""]. *)

  val dump : ?path:string -> reason:string -> unit -> string
  (** Write the ring as a Chrome trace to [path] (default
      [<prefix>-<reason>.json]) with [reason], [flight_evictions] and
      [armed] as extra top-level fields; returns the path written.
      Safe from OCaml signal handlers and racing triggers (serialized
      internally). *)

  val incident : reason:string -> unit -> string option
  (** Rate-limited {!dump} (at most one per second, across reasons):
      the trigger for recurring conditions like daemon 5xx responses.
      [None] when suppressed by the rate limit. *)

  val dumps : unit -> int
  (** Dump files written since process start. *)
end

(** Process runtime telemetry: GC behaviour, resident set size and
    domain registration published as [runtime_*] gauges, so solver
    allocation pressure is visible next to pivot counts in the same
    scrape or trace.  Off by default; {!start} launches a background
    sampler thread (stdlib [Thread] + [Unix]), [tinflow --listen]
    starts it automatically. *)
module Runtime : sig
  val sample : unit -> unit
  (** Take one sample now (on the calling thread): publishes
      [Gc.quick_stat] cumulative totals ([runtime_gc_minor_collections],
      [runtime_gc_major_collections], [runtime_gc_compactions],
      [runtime_gc_minor_words], [runtime_gc_promoted_words],
      [runtime_gc_heap_words]), the number of domains that have
      registered with this observability layer ([runtime_obs_domains]),
      and the resident set size from [/proc/self/statm]
      ([runtime_rss_pages], and [runtime_rss_bytes] assuming 4 KiB
      pages) when that file exists (Linux).  [runtime_peak_rss_bytes]
      is max-tracking: it holds the largest [runtime_rss_bytes] seen
      since the last {!reset}, so the high-water mark survives later,
      smaller samples.
      Rates (allocation rate, collections/s) are computed scrape-side
      from successive samples.  Like every probe, a no-op while
      {!enabled} is false. *)

  val start : ?period_ms:int -> unit -> unit
  (** Start the background sampler: one {!sample} immediately, then
      one per [period_ms] (default 500) until {!stop}.  Idempotent
      while running.
      @raise Invalid_argument if [period_ms] is not positive. *)

  val stop : unit -> unit
  (** Stop and join the sampler thread; no-op if not running.  The
      last published gauge values remain readable. *)

  val running : unit -> bool
end

val counters : unit -> (string * int) list
(** Every registered counter with its merged value, sorted by name. *)

val gauges : unit -> (string * float) list
(** Every gauge that has been written since the last {!reset}, with
    its freshest value, sorted by name. *)

val histograms : unit -> (string * Tin_util.Stats.summary) list
(** Every registered histogram with its merged summary, sorted by
    name. *)

val trace_events : unit -> event list
(** All recorded spans, across domains, sorted by start time. *)

val dropped_events : unit -> int
(** Spans discarded because a domain's buffer hit its cap.  Surfaced
    by {!print_summary} (warning line) and as a top-level
    ["dropped_events"] field of both JSON exports. *)

val chrome_trace_json : unit -> string
(** The recorded spans in Chrome-trace {e JSON Object Format}:
    [{"traceEvents": [...], "dropped_events": N}] where the array
    holds complete ("ph":"X") events with microsecond timestamps
    rebased to the earliest span, one ["thread_name"] metadata record
    per domain, and every nonzero counter appended as a process-level
    instant event — loadable directly in [chrome://tracing] and
    Perfetto (both accept the object form). *)

val metrics_json : unit -> string
(** Counters, gauges and histogram summaries as one plain JSON
    object, with a top-level ["dropped_events"] field. *)

val prometheus_text : unit -> string
(** Every metric in Prometheus text exposition format (version
    0.0.4): [# HELP] / [# TYPE] headers per family, label names and
    escaped label values for family members, metric names sanitized to
    the [[a-zA-Z_:][a-zA-Z0-9_:]*] charset (dots become underscores:
    counter [pipeline.stage.lp_solve] exports as [pipeline_stage_lp_solve]).
    Histogram summaries export as four gauges ([_count], [_sum],
    [_min], [_max]); unset gauges and empty histograms are omitted
    (except [_count], always exported once a histogram family member
    exists).  This is what [GET /metrics] serves. *)

val write_chrome_trace : string -> unit
(** [write_chrome_trace path] writes {!chrome_trace_json} to [path]. *)

val print_summary : out_channel -> unit
(** Renders the nonzero counters, set gauges and nonempty histograms
    as aligned tables (the [tinflow --metrics] report), preceded by a
    warning line when {!dropped_events} is positive. *)
