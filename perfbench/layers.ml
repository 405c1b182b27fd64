(* The traced run: bench-side spans around each layer's public entry
   points, and the per-layer table built from the exported trace with
   the same analyzer as [tinflow obs report] ({!Tin_obs.Report}). *)

module Obs = Tin_obs.Obs
module Report = Tin_obs.Report

let traced = ref false

(* Minor words allocated inside each bench span, in millions, summed by
   span name.  [Gc.quick_stat] counts every domain, including workers
   that a layer spawned and joined inside the span. *)
let mwords : (string, float) Hashtbl.t = Hashtbl.create 16

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let span name f =
  if not !traced then f ()
  else begin
    let w0 = minor_words () in
    let r = Obs.Span.with_ name f in
    let dw = (minor_words () -. w0) /. 1e6 in
    Hashtbl.replace mwords name (dw +. Option.value ~default:0.0 (Hashtbl.find_opt mwords name));
    r
  end

(* The root of a traced answer, so its spans export as one tree. *)
let answer f = if !traced then Obs.Span.with_root "bench.answer" f else f ()

let span_mwords name = Option.value ~default:0.0 (Hashtbl.find_opt mwords name)

(* Start a traced answer: tracing on, every earlier counter and span
   dropped, room for every span of one answer. *)
let start () =
  traced := true;
  Obs.set_span_buffer_cap (1 lsl 22);
  Obs.reset ();
  Hashtbl.reset mwords;
  Obs.enable ()

type gc = { minor_mwords : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_mwords = s.Gc.minor_words /. 1e6; major_collections = s.Gc.major_collections }

let gc_since g0 =
  let g1 = gc_now () in
  {
    minor_mwords = g1.minor_mwords -. g0.minor_mwords;
    major_collections = g1.major_collections - g0.major_collections;
  }

type analysis = { report : Report.t; counters : (string * int) list }

(* Stop tracing, export the trace to [path] and analyze that file —
   the same bytes [tinflow obs report] reads. *)
let finish path =
  Obs.disable ();
  traced := false;
  let counters = Obs.counters () in
  if Obs.dropped_events () > 0 then
    failwith (Printf.sprintf "trace dropped %d span(s)" (Obs.dropped_events ()));
  Obs.write_chrome_trace path;
  let doc = Tin_util.Json.parse_exn (In_channel.with_open_bin path In_channel.input_all) in
  match Report.analyze ~top:max_int doc with
  | Ok report -> { report; counters }
  | Error e -> failwith ("trace analysis: " ^ e)

let self (a : analysis) name =
  match List.find_opt (fun s -> s.Report.s_name = name) a.report.Report.self_times with
  | Some s -> (s.Report.s_count, s.Report.s_total_us /. 1e3)
  | None -> (0, 0.0)

let self_ms a name = snd (self a name)
let span_count a name = fst (self a name)

(* A counter by exact name, or summed over a labeled family. *)
let counter (a : analysis) name =
  List.fold_left
    (fun acc (n, v) ->
      if n = name || String.starts_with ~prefix:(name ^ "{") n then acc + v else acc)
    0 a.counters

(* Batch fan-out: chunk time summed over domains against the wall time
   [jobs] domains were available, and Report's imbalance.  One job runs
   no chunks: its one domain does all the work. *)
let batch_balance (a : analysis) ~jobs ~run_ms =
  match a.report.Report.chunks with
  | None -> if jobs = 1 then (1.0, 1.0) else (0.0, 0.0)
  | Some c ->
      let busy_ms = List.fold_left (fun acc (_, us) -> acc +. (us /. 1e3)) 0.0 c.Report.c_per_domain_us in
      (busy_ms /. (float_of_int jobs *. run_ms), c.Report.c_imbalance)

(* Every per-layer metric, in print order, with its unit and the
   end-to-end metric it should move.  A traced run prints all of them;
   a layer its workload does not reach reads 0. *)
let stage_names =
  [
    "soluble-as-given";
    "cyclic-fallback";
    "zero-after-preprocess";
    "soluble-after-preprocess";
    "soluble-after-simplify";
    "lp-solve";
  ]

let catalog =
  [
    ("io.load_ms", "ms", "answer_s: batch-btc (CSV), patterns-prosper (.tinb)");
    ("io.load_mwords", "Mwords", "answer_s, peak_rss_mb: batch-btc, patterns-prosper");
    ("extract.run_ms", "ms", "answer_s: batch-btc");
    ("extract.subgraphs", "count", "answer_s: batch-btc");
    ("extract.mwords", "Mwords", "answer_s, peak_rss_mb: batch-btc");
    ("batch.run_ms", "ms", "answer_s: batch-btc");
    ("batch.utilization", "ratio", "answer_s: batch-btc");
    ("batch.imbalance", "ratio", "answer_s: batch-btc");
    ("batch.mwords", "Mwords", "answer_s, peak_rss_mb: batch-btc");
  ]
  @ List.map
      (fun s -> ("pipeline.stage." ^ s, "count", "answer_s: batch-btc, patterns-prosper"))
      stage_names
  @ [
      ("pipeline.lp_vars_before", "count", "answer_s: batch-btc");
      ("pipeline.lp_vars_after", "count", "answer_s: batch-btc");
      ("preprocess.self_ms", "ms", "answer_s: batch-btc, patterns-prosper");
      ("simplify.self_ms", "ms", "answer_s: batch-btc, patterns-prosper");
      ("greedy.self_ms", "ms", "answer_s: batch-btc, patterns-prosper");
      ("greedy.buffer_touches", "count", "answer_s: batch-btc, patterns-prosper");
      ("lp.solves", "count", "answer_s: batch-btc, patterns-prosper");
      ("lp.solve_self_ms", "ms", "answer_s: batch-btc, patterns-prosper");
      ("lp.build_self_ms", "ms", "answer_s: batch-btc, patterns-prosper");
      ("lp.pivots", "count", "answer_s: batch-btc, patterns-prosper");
      ("lp.iters", "count", "answer_s: batch-btc, patterns-prosper");
      ("time_expand.calls", "count", "answer_s: batch-btc");
      ("time_expand.self_ms", "ms", "answer_s: batch-btc");
      ("tables.precompute_ms", "ms", "answer_s: patterns-prosper");
      ("tables.rows", "count", "answer_s, peak_rss_mb: patterns-prosper");
      ("tables.precompute_mwords", "Mwords", "answer_s, peak_rss_mb: patterns-prosper");
      ("catalog.pb_ms", "ms", "answer_s: patterns-prosper; lat_ms_p99: serve-btc");
      ("catalog.lp_pattern_ms", "ms", "answer_s: patterns-prosper");
      ("catalog.instances", "count", "answer_s: patterns-prosper");
      ("catalog.tickets", "count", "answer_s: patterns-prosper; lat_ms_p99: serve-btc");
      ("catalog.search_self_ms", "ms", "answer_s: patterns-prosper; lat_ms_p99: serve-btc");
      ("ingest.decode_ms", "ms", "lat_ms_p50, answer_s: serve-btc");
      ("http.overhead_ms", "ms", "lat_ms_p50, answer_s: serve-btc");
      ("online.buffer_touches", "count", "lat_ms_p50, answer_s: serve-btc");
      ("daemon.ingest_self_ms", "ms", "lat_ms_p50, answer_s: serve-btc");
      ("daemon.tick_self_ms", "ms", "lat_ms_p99, serve.alert_ms_p50: serve-btc");
      ("delta.rows_recomputed", "count", "lat_ms_p99, serve.alert_ms_p50: serve-btc");
      ("daemon.ticks", "count", "lat_ms_p99, serve.alert_ms_p50: serve-btc");
      ("daemon.alerts", "count", "serve.alert_ms_p50: serve-btc");
      ("daemon.status_handler_ms", "ms", "serve.status_ms_p95, lat_ms_p99: serve-btc");
      ("daemon.rebuilds", "count", "serve.status_ms_p95: serve-btc");
      ("daemon.evicted", "count", "serve.status_ms_p95: serve-btc");
      ("gc.minor_mwords", "Mwords", "answer_s, peak_rss_mb: every workload");
      ("gc.major_collections", "collections", "answer_s, peak_rss_mb: every workload");
    ]

(* The per-layer metrics of one traced answer, in catalog order;
   layers this workload did not reach read 0. *)
let metrics values =
  List.map
    (fun (name, unit, _) ->
      { Harness.name; unit; value = Option.value ~default:0.0 (List.assoc_opt name values) })
    catalog

(* What a traced run adds to its result line: the traced answer's
   seconds, and the end-to-end target of every per-layer metric for the
   printed table. *)
let traced_extra secs =
  [
    ("traced_answer_s", Harness.fmt_num secs);
    ( "targets",
      "{"
      ^ String.concat ", "
          (List.map
             (fun (name, _, target) -> Printf.sprintf {|"%s": "%s"|} name (Tin_util.Json.escape target))
             catalog)
      ^ "}" );
  ]

(* Values every workload reads from the trace the same way. *)
let common (a : analysis) ~gc =
  let f = float_of_int in
  List.map (fun s -> ("pipeline.stage." ^ s, f (counter a ("pipeline.stage." ^ s)))) stage_names
  @ [
      ("preprocess.self_ms", self_ms a "pipeline.preprocess");
      ("simplify.self_ms", self_ms a "pipeline.simplify");
      ("greedy.self_ms", self_ms a "pipeline.greedy");
      ("greedy.buffer_touches", f (counter a "greedy.buffer_touches"));
      ("lp.solves", f (span_count a "lp.solve"));
      ("lp.solve_self_ms", self_ms a "lp.solve");
      ("lp.build_self_ms", self_ms a "pipeline.lp");
      ("lp.pivots", f (counter a "lp_pivots"));
      ("lp.iters", f (counter a "lp_iters"));
      ("time_expand.calls", f (span_count a "pipeline.time_expand"));
      ("time_expand.self_ms", self_ms a "pipeline.time_expand");
      ("catalog.tickets", f (counter a "catalog.tickets"));
      ("catalog.search_self_ms", self_ms a "catalog.search");
      ("online.buffer_touches", f (counter a "online.buffer_touches"));
      ("delta.rows_recomputed", f (counter a "delta.rows_recomputed"));
      ("gc.minor_mwords", gc.minor_mwords);
      ("gc.major_collections", f gc.major_collections);
    ]
