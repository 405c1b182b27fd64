(** Offline critical-path analyzer for exported traces — the engine of
    [tinflow obs report].

    Input is any Chrome-trace document this layer writes (a [--trace]
    file or a {!Obs.Flight} dump): the ["X"] events are reassembled
    into span trees from the [trace_id]/[span_id]/[parent_id] ids the
    exporter placed in their args, and the analysis reports

    - the {e critical path}: from the longest root span, repeatedly
      descend into the child that finishes last — the chain of spans
      that gated the request's completion, each with its self
      contribution (its duration minus the chosen child's);
    - {e per-domain utilization}: the union of each domain's span
      intervals (nested spans not double-counted) over the whole-trace
      wall time;
    - {e chunk balance} over [batch.map.chunk] /
      [batch.map_reduce.chunk] spans: duration statistics, per-domain
      chunk time, and imbalance (max over mean domain chunk time —
      1.0 is a perfectly even spread);
    - {e top span self-times} aggregated by name (duration minus the
      interval union of children).

    Traces recorded before trace contexts existed (spans without ids)
    degrade gracefully: every span classifies as a root and the
    critical path is the longest span alone. *)

type span = {
  name : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  span_id : string;
  parent_id : string;
}

type domain_stat = {
  d_tid : int;
  d_spans : int;
  d_busy_us : float;
  d_utilization : float;
}

type chunk_stats = {
  c_count : int;
  c_mean_us : float;
  c_min_us : float;
  c_max_us : float;
  c_stddev_us : float;
  c_per_domain_us : (int * float) list;
  c_imbalance : float;
}

type self_time = { s_name : string; s_count : int; s_total_us : float; s_max_us : float }

type t = {
  spans : int;
  dropped : int;
  wall_us : float;
  roots : int;  (** Spans with no in-trace parent; 1 for a fully stitched request. *)
  orphans : int;
      (** Spans whose parent chain does not reach the primary root —
          0 when cross-domain stitching worked. *)
  root_name : string;
  trace_id : string;
  critical_path : (span * float) list;
  critical_path_us : float;
  domains : domain_stat list;
  chunks : chunk_stats option;
  self_times : self_time list;
}

val analyze : ?top:int -> Tin_util.Json.t -> (t, string) result
(** [analyze doc] over a parsed Chrome-trace document.  [top] (default
    10) bounds [self_times].  [Error] when the document has no
    [traceEvents] array or no complete span events. *)

val to_json : t -> string
(** Machine-readable report, schema ["tinflow.obs.report/v1"]:
    [{"schema", "trace": {spans, dropped, wall_ms, roots, orphans,
    root, trace_id}, "critical_path_ms", "critical_path": [{name, tid,
    dur_ms, self_ms}], "domains": [{tid, spans, busy_ms, utilization}],
    "utilization": {domains, mean}, "chunks": {count, mean_ms, min_ms,
    max_ms, stddev_ms, imbalance, per_domain} | null, "self_times":
    [{name, count, self_ms, max_self_ms}]}].  Durations are in
    milliseconds and carry an [_ms] suffix; perfbench's self-test reads
    [self_times] to check its per-layer split. *)

val render : t -> string
(** Human tables: critical path, per-domain utilization, chunk
    balance, top self-times. *)
