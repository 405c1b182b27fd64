(* Observability overhead guard.

   Every instrumentation site in the solvers and the pipeline reduces
   to a single [Atomic.get Obs.enabled] load when observability is off,
   so the disabled path must be free.  This benchmark keeps that claim
   honest in two ways:

   - it measures the disabled [Counter.incr] cost directly (ns/op) and
     multiplies by the number of counter operations a real solve
     workload performs (counted in a separate instrumented pass) to
     bound the injected overhead analytically;
   - it also times the workload with observability on vs off as a
     sanity cross-check (reported, not asserted: wall-clock deltas at
     this scale are noise-dominated).

   The analytic bound is deterministic, so it is asserted: the run
   fails if the estimated disabled-path overhead reaches 2%.

   Since the flight recorder (armed by default) records spans even
   with tracing off, the bound now has a second term: span count times
   the measured cost of one flight-ring record.  The baseline workload
   is timed with the recorder disarmed — the strict zero-recording
   path the original guard protected.

   A third section assert-checks the trace analyzer on a real traced
   [Batch] run: stitching (single root, no orphans), chunk statistics,
   and per-domain utilization on multi-domain machines. *)

module Obs = Tin_obs.Obs
module Report = Tin_obs.Report
module Timer = Tin_util.Timer
module Json = Tin_util.Json
module Extract = Tin_datasets.Extract
module Lp_flow = Tin_core.Lp_flow
module Batch = Tin_core.Batch

let guard_pct = 2.0
let max_problems = 50

(* [dense] flag of each solver run: the dense reference, then sparse. *)
let solvers = [ true; false ]

(* ns per disabled Counter.incr, measured over a long tight loop. *)
let disabled_incr_ns () =
  let c = Obs.Counter.make "bench.obs.disabled_probe" in
  for _ = 1 to 1_000 do
    Obs.Counter.incr c
  done;
  let n = 20_000_000 in
  let (), secs =
    Timer.time_f (fun () ->
        for _ = 1 to n do
          Obs.Counter.incr c
        done)
  in
  secs *. 1e9 /. float_of_int n

(* ns per span recorded into the flight ring alone (enabled off,
   recorder armed) — the cost the always-on black box adds to each
   instrumented region when nobody is tracing. *)
let flight_span_ns () =
  Obs.Flight.arm ();
  let f () = () in
  for _ = 1 to 1_000 do
    Obs.Span.with_ "bench.obs.flight_probe" f
  done;
  let n = 2_000_000 in
  let (), secs =
    Timer.time_f (fun () ->
        for _ = 1 to n do
          Obs.Span.with_ "bench.obs.flight_probe" f
        done)
  in
  Obs.reset ();
  secs *. 1e9 /. float_of_int n

let solve_all problems =
  List.iter
    (fun (p : Extract.problem) ->
      List.iter
        (fun dense ->
          ignore
            (Lp_flow.solve ~dense p.Extract.graph ~source:p.Extract.source ~sink:p.Extract.sink))
        solvers)
    problems

(* Trace a real multi-domain Batch run and assert the analyzer on it:
   one root, no orphans, a non-empty critical path, and chunk stats.
   This is the bench-side contract for [tinflow obs report]. *)
let check_report problems =
  (* Always 2 domains: chunk spans and cross-domain stitching are what
     is under test, and both only exist on the spawning path.  On a
     single-CPU machine the domains timeshare — fine for correctness,
     which is why the utilization floor below stays gated on real
     parallelism. *)
  let jobs = 2 in
  Obs.reset ();
  Obs.enable ();
  Obs.Span.with_root "bench.obs.batch" (fun () ->
      ignore
        (Batch.max_flows ~jobs
           (List.map
              (fun (p : Extract.problem) ->
                { Batch.graph = p.Extract.graph;
                  source = p.Extract.source;
                  sink = p.Extract.sink;
                })
              problems)));
  let doc = Json.parse_exn (Obs.chrome_trace_json ()) in
  Obs.disable ();
  Obs.reset ();
  match Report.analyze doc with
  | Error msg -> failwith ("obs report analysis failed: " ^ msg)
  | Ok r ->
      Printf.printf
        "  trace analysis: %d spans, roots=%d orphans=%d, critical path %.3f ms (%d spans)\n"
        r.Report.spans r.Report.roots r.Report.orphans
        (r.Report.critical_path_us /. 1_000.0)
        (List.length r.Report.critical_path);
      if r.Report.roots <> 1 then
        failwith (Printf.sprintf "traced batch run has %d roots, expected 1" r.Report.roots);
      if r.Report.orphans <> 0 then
        failwith
          (Printf.sprintf "traced batch run has %d orphan spans (broken stitching)"
             r.Report.orphans);
      if r.Report.critical_path = [] then failwith "empty critical path on traced batch run";
      (match r.Report.chunks with
      | None -> failwith "no batch chunk spans found in traced batch run"
      | Some c ->
          Printf.printf "  chunks: %d, imbalance %.2f across %d domain(s)\n" c.Report.c_count
            c.Report.c_imbalance
            (List.length c.Report.c_per_domain_us));
      if jobs > 1 && Domain.recommended_domain_count () > 1 then begin
        let mean_util =
          match r.Report.domains with
          | [] -> 0.0
          | ds ->
              List.fold_left (fun acc d -> acc +. d.Report.d_utilization) 0.0 ds
              /. float_of_int (List.length ds)
        in
        Printf.printf "  mean domain utilization: %.1f%%\n" (100.0 *. mean_util);
        if mean_util < 0.2 then
          failwith
            (Printf.sprintf "mean domain utilization %.2f below 0.20 floor" mean_util)
      end;
      (* The JSON report must parse and carry its schema marker — what
         CI and perfbench's self-test read. *)
      let rj = Json.parse_exn (Report.to_json r) in
      (match Json.member "schema" rj with
      | Some (Json.Str "tinflow.obs.report/v1") -> ()
      | _ -> failwith "obs report JSON missing schema tinflow.obs.report/v1");
      Printf.printf "  ok: trace analysis and report schema verified\n"

let run datasets =
  let problems =
    List.concat_map (fun d -> d.Workload.problems) datasets
    |> List.filteri (fun i _ -> i < max_problems)
  in
  if problems = [] then print_endline "obs: no extracted subgraphs to benchmark"
  else begin
    Printf.printf "Observability disabled-path overhead guard (%d subgraphs x %d solvers)\n%!"
      (List.length problems) (List.length solvers);
    let ns_per_op = disabled_incr_ns () in
    let ns_per_flight_span = flight_span_ns () in
    (* Count the counter operations and spans the workload performs. *)
    Obs.reset ();
    Obs.enable ();
    let (), enabled_secs = Timer.time_f (fun () -> solve_all problems) in
    Obs.disable ();
    let ops = List.fold_left (fun acc (_, v) -> acc + v) 0 (Obs.counters ()) in
    let spans = List.length (Obs.trace_events ()) + Obs.dropped_events () in
    Obs.reset ();
    (* Time the same workload on the strict zero path (recorder
       disarmed, twice: warm + timed); the flight cost is then added
       back analytically from the measured per-span price. *)
    Obs.Flight.disarm ();
    solve_all problems;
    let (), disabled_secs = Timer.time_f (fun () -> solve_all problems) in
    Obs.Flight.arm ();
    let injected_secs =
      (float_of_int ops *. ns_per_op /. 1e9)
      +. (float_of_int spans *. ns_per_flight_span /. 1e9)
    in
    let overhead_pct = 100.0 *. injected_secs /. Float.max disabled_secs 1e-9 in
    Printf.printf "  disabled Counter.incr:  %.2f ns/op\n" ns_per_op;
    Printf.printf "  flight span record:     %.2f ns/span\n" ns_per_flight_span;
    Printf.printf "  counter ops in workload: %d, spans: %d\n" ops spans;
    Printf.printf "  workload wall: %.3fs disabled, %.3fs enabled\n" disabled_secs enabled_secs;
    Printf.printf "  estimated disabled-path overhead: %.4f%% (guard: < %g%%)\n" overhead_pct
      guard_pct;
    if overhead_pct >= guard_pct then
      failwith
        (Printf.sprintf "observability disabled-path overhead %.3f%% exceeds %g%% budget"
           overhead_pct guard_pct);
    Printf.printf "  ok: disabled-path overhead within budget\n";
    check_report problems
  end
