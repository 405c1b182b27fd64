(* batch-btc: a Bitcoin-shaped network from CSV through Io.load,
   Extract.extract and Batch.max_flows — the [tinflow batch] path.

   At one job.  With two domains busy on a shared 2-vCPU host the
   hypervisor steals 1-30% of the time depending on its other tenants,
   and the answer time swung by a third from one set of runs to the
   next; at one job steal stays near 1%.  The checks, off the clock,
   use every domain. *)

module Extract = Tin_datasets.Extract
module Batch = Tin_core.Batch
module Pipeline = Tin_core.Pipeline
module Fcmp = Tin_util.Fcmp

let jobs = 1
let max_interactions = 1000

type answer = { seeds : int array; problems : Batch.problem list; values : float array; total : float }

let query ?(jobs = jobs) path =
  Layers.answer @@ fun () ->
  let net = Layers.span "io.load" (fun () -> Io.load path) in
  let extracted = Layers.span "extract.extract" (fun () -> Extract.extract ~max_interactions net) in
  let problems =
    List.map
      (fun (p : Extract.problem) ->
        { Batch.graph = p.Extract.graph; source = p.Extract.source; sink = p.Extract.sink })
      extracted
  in
  let values = Layers.span "batch.max_flows" (fun () -> Batch.max_flows ~jobs problems) in
  {
    seeds = Array.of_list (List.map (fun (p : Extract.problem) -> p.Extract.seed) extracted);
    problems;
    values = Array.of_list values;
    total = List.fold_left ( +. ) 0.0 values;
  }

(* What a run keeps of an answer: the flows by seed, not the graphs. *)
type summary = { s_seeds : int array; s_values : float array; s_total : float }

let summary a = { s_seeds = a.seeds; s_values = a.values; s_total = a.total }

let same_summary a b =
  Array.length a.s_values = Array.length b.s_values && Array.for_all2 Float.equal a.s_values b.s_values

(* Every subgraph flow of an answer against the time-expanded Dinic
   oracle. *)
let oracle_ok a =
  let oracle =
    Batch.map
      (fun (p : Batch.problem) ->
        Tin_maxflow.Time_expand.max_flow p.Batch.graph ~source:p.Batch.source ~sink:p.Batch.sink)
      (Array.of_list a.problems)
  in
  let ok = Array.for_all2 Fcmp.approx_eq a.values oracle in
  if not ok then Harness.log "batch-btc: a flow disagrees with Time_expand.max_flow";
  ok

(* The same network loaded from CSV and from its snapshot: per-seed
   flows and the total agree within the Fcmp policy. *)
let formats_ok ~csv ~snap =
  let by_seed a = List.sort compare (List.combine (Array.to_list a.s_seeds) (Array.to_list a.s_values)) in
  let ok =
    Fcmp.approx_eq csv.s_total snap.s_total
    && List.length (by_seed csv) = List.length (by_seed snap)
    && List.for_all2 (fun (s1, v1) (s2, v2) -> s1 = s2 && Fcmp.approx_eq v1 v2) (by_seed csv) (by_seed snap)
  in
  if not ok then Harness.log "batch-btc: CSV total %.17g but .tinb total %.17g" csv.s_total snap.s_total;
  ok

let guard () =
  let domains = Domain.recommended_domain_count () in
  if jobs > domains then begin
    Printf.eprintf "bench: skip batch-btc: jobs = %d > %d recommended domain(s)\n%!" jobs domains;
    exit 3
  end

(* One timed answer from an input's CSV, in its own process; the first
   answer of each input is also checked against the oracle and against
   the input's snapshot. *)
let answer ~first dir =
  let a, secs = Harness.timed (fun () -> query (Inputs.csv dir)) in
  let peak = Harness.peak_rss_mb () in
  let s = summary a in
  let checked =
    first && oracle_ok a
    && formats_ok ~csv:s ~snap:(summary (query ~jobs:(Batch.recommended_jobs ()) (Inputs.tinb dir)))
  in
  ((s, checked), secs, peak)

let run ~dirs ~seconds =
  guard ();
  let samples = Harness.rounds ~seconds (Array.of_list dirs) answer in
  (* Every answer of an input must equal its checked first answer. *)
  let failed =
    Array.fold_left
      (fun acc ss ->
        match ss with
        | [] -> acc
        | first :: _ ->
            let (ref_, checked) = first.Harness.answer in
            acc
            + List.length
                (List.filter
                   (fun s -> not (checked && same_summary (fst s.Harness.answer) ref_))
                   ss))
      0 samples
  in
  Array.iteri
    (fun i ss ->
      let (a, _) = (List.hd ss).Harness.answer in
      Harness.log "batch-btc: input %d: %d subgraphs, total flow %.17g: %s" i (Array.length a.s_values)
        a.s_total (Harness.describe ss))
    samples;
  let secs = Array.map (List.map (fun s -> s.Harness.secs)) samples in
  let ms = Array.map (List.map (fun t -> t *. 1e3)) secs in
  ( failed = 0,
    Array.fold_left (fun acc ts -> acc + List.length ts) 0 secs,
    failed,
    [
      Harness.metric "answer_s" "s" (Harness.mean_of_medians secs);
      Harness.metric "peak_rss_mb" "MB" (Harness.mean_of_medians (Array.map (List.map (fun s -> s.Harness.peak_mb)) samples));
      Harness.metric "lat_ms_p50" "ms" (Harness.mean_of_medians ms);
      Harness.metric "lat_ms_p99" "ms" (Harness.mean_over_inputs (fun xs -> snd (Harness.tail_percentile xs)) ms);
    ],
    [ ("first_input_answer_s", Harness.fmt_num (Harness.median secs.(0))) ] )

(* One traced answer from the input's CSV, first in its process like
   the untraced answers; then an untraced one it must equal. *)
let run_traced ~dir ~trace_file =
  guard ();
  Layers.start ();
  let gc0 = Layers.gc_now () in
  let a, dt = Harness.timed (fun () -> query (Inputs.csv dir)) in
  let gc = Layers.gc_since gc0 in
  let an = Layers.finish trace_file in
  let reference = summary (query (Inputs.csv dir)) in
  (* LP sizes before and after reduction, from the pipeline's own
     report, untraced so the trace above holds only the answer. *)
  let reports =
    Batch.map
      (fun (p : Batch.problem) -> Pipeline.report p.Batch.graph ~source:p.Batch.source ~sink:p.Batch.sink)
      (Array.of_list a.problems)
  in
  let vars_before = Array.fold_left (fun acc r -> acc + r.Pipeline.lp_vars_before) 0 reports in
  let vars_after = Array.fold_left (fun acc r -> acc + r.Pipeline.lp_vars_after) 0 reports in
  let ok =
    same_summary (summary a) reference
    && Array.for_all2 (fun r v -> Float.equal r.Pipeline.value v) reports a.values
  in
  let batch_ms =
    List.fold_left
      (fun acc (e : Tin_obs.Obs.event) ->
        if e.Tin_obs.Obs.name = "batch.max_flows" then acc +. (Int64.to_float e.Tin_obs.Obs.dur_ns /. 1e6)
        else acc)
      0.0 (Tin_obs.Obs.trace_events ())
  in
  let utilization, imbalance = Layers.batch_balance an ~jobs ~run_ms:batch_ms in
  let f = float_of_int in
  let values =
    Layers.common an ~gc
    @ [
        ("io.load_ms", Layers.self_ms an "io.load");
        ("io.load_mwords", Layers.span_mwords "io.load");
        ("extract.run_ms", Layers.self_ms an "extract.extract");
        ("extract.subgraphs", f (Array.length a.values));
        ("extract.mwords", Layers.span_mwords "extract.extract");
        ("batch.run_ms", batch_ms);
        ("batch.utilization", utilization);
        ("batch.imbalance", imbalance);
        ("batch.mwords", Layers.span_mwords "batch.max_flows");
        ("pipeline.lp_vars_before", f vars_before);
        ("pipeline.lp_vars_after", f vars_after);
      ]
  in
  (ok, 1, (if ok then 0 else 1), Layers.metrics values, Layers.traced_extra dt)
