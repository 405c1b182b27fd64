(* Solver benchmark: dense two-phase simplex (upper bounds as explicit
   rows) vs sparse revised simplex (native bounds) on the extracted
   flow LPs (per difficulty class), plus multicore batch throughput across Domains.  Results are
   printed as tables and written machine-readable to a JSON file
   (default BENCH_flow.json) for regression tracking. *)

module Pipeline = Tin_core.Pipeline
module Lp_flow = Tin_core.Lp_flow
module Batch = Tin_core.Batch
module Extract = Tin_datasets.Extract
module Table = Tin_util.Table
module Timer = Tin_util.Timer
module Stats = Tin_util.Stats
module Fcmp = Tin_util.Fcmp

let solvers = [ ("dense", true); ("sparse", false) ]

type measured = {
  cls : Pipeline.cls;
  times : (string * float) list; (* solver name -> ms *)
}

(* One problem, both solvers, with a value-agreement guard: the two
   simplex variants must produce the same flow — any gap is a solver
   bug, not noise. *)
let measure_problem (p : Extract.problem) =
  let g = p.Extract.graph and source = p.Extract.source and sink = p.Extract.sink in
  let cls = Pipeline.classify g ~source ~sink in
  let runs =
    List.map
      (fun (name, dense) ->
        let v, ms = Timer.time_ms (fun () -> Lp_flow.solve ~dense g ~source ~sink) in
        let v =
          match v with
          | Ok v -> v
          | Error _ -> failwith (Printf.sprintf "solver %s failed on seed %d" name p.Extract.seed)
        in
        (name, v, ms))
      solvers
  in
  let _, v0, _ = List.hd runs in
  List.iter
    (fun (name, v, _) ->
      if not (Fcmp.approx_eq ~eps:1e-6 v0 v) then
        failwith
          (Printf.sprintf "solver disagreement on seed %d: dense=%g %s=%g" p.Extract.seed v0 name
             v))
    runs;
  { cls; times = List.map (fun (name, _, ms) -> (name, ms)) runs }

let avg_times measured =
  List.map
    (fun (name, _) -> (name, Stats.mean (List.map (fun r -> List.assoc name r.times) measured)))
    solvers

type class_summary = { label : string; count : int; solver_ms : (string * float) list }

let class_summaries measured =
  let bucket label rows = { label; count = List.length rows; solver_ms = avg_times rows } in
  let cls c = List.filter (fun r -> r.cls = c) measured in
  [
    bucket "All" measured;
    bucket "A" (cls Pipeline.A);
    bucket "B" (cls Pipeline.B);
    bucket "C" (cls Pipeline.C);
  ]

(* ------------------------------------------------------------------ *)
(* Batch throughput                                                    *)
(* ------------------------------------------------------------------ *)

type batch_run = {
  jobs : int;
  timing : (float * float, string) result;
      (* [Ok (wall_ms, problems_per_s)], or [Error reason] when the
         measurement would be meaningless on this machine. *)
}

let job_counts () =
  (* Always include a multi-domain point (jobs = 2) so the parallel
     path is exercised even on single-core machines; above that, only
     job counts the hardware can actually run concurrently. *)
  let rec_jobs = Batch.recommended_jobs () in
  List.sort_uniq compare (1 :: 2 :: rec_jobs :: List.filter (fun j -> j <= rec_jobs) [ 4; 8 ])

let measure_batch problems =
  let batch_problems =
    List.map
      (fun (p : Extract.problem) ->
        { Batch.graph = p.Extract.graph; source = p.Extract.source; sink = p.Extract.sink })
      problems
  in
  let n = List.length batch_problems in
  let single_domain = Batch.recommended_jobs () = 1 in
  let baseline = ref [] in
  List.map
    (fun jobs ->
      let values, wall_ms =
        Timer.time_ms (fun () -> Batch.max_flows ~jobs ~method_:Pipeline.Lp batch_problems)
      in
      if !baseline = [] then baseline := values
      else
        List.iter2
          (fun a b ->
            if not (Fcmp.approx_eq ~eps:1e-6 a b) then
              failwith (Printf.sprintf "batch value drift at jobs=%d: %g vs %g" jobs a b))
          !baseline values;
      (* On a single-domain machine jobs > 1 only time-slices one core,
         so a "parallel" wall time is pure scheduling noise — worse, it
         poisons the committed baseline with jobs=2 slower than jobs=1.
         The run above still exercises the multi-domain code path and
         the value-drift guard; only the numbers are refused. *)
      let timing =
        if jobs > 1 && single_domain then Error "single_domain"
        else
          Ok
            ( wall_ms,
              if wall_ms > 0.0 then float_of_int n /. (wall_ms /. 1000.0) else 0.0 )
      in
      { jobs; timing })
    (job_counts ())

(* ------------------------------------------------------------------ *)
(* Observability snapshot                                              *)
(* ------------------------------------------------------------------ *)

module Obs = Tin_obs.Obs

(* The timed runs above execute with observability disabled so the
   measurements stay clean; this re-runs each (problem, solver) pair
   once with counters on and reports the totals (LP iterations,
   pivots, bound flips, refactorizations, ...) so BENCH_flow.json
   tracks algorithmic work alongside wall time. *)
let obs_snapshot problems =
  Obs.reset ();
  Obs.enable ();
  List.iter
    (fun (p : Extract.problem) ->
      List.iter
        (fun (_, dense) ->
          ignore
            (Lp_flow.solve ~dense p.Extract.graph ~source:p.Extract.source ~sink:p.Extract.sink))
        solvers)
    problems;
  Obs.disable ();
  let counters = List.filter (fun (_, v) -> v > 0) (Obs.counters ()) in
  Obs.reset ();
  counters

(* ------------------------------------------------------------------ *)
(* JSON output (hand-rolled: only strings, ints and floats appear)     *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

type dataset_result = {
  name : string;
  n_problems : int;
  classes : class_summary list;
  batch : batch_run list;
  obs : (string * int) list;
}

let write_json path ~scale_name results =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"benchmark\": \"flow_solvers\",\n";
  add "  \"scale\": \"%s\",\n" (json_escape scale_name);
  add "  \"domains_available\": %d,\n" (Batch.recommended_jobs ());
  add "  \"datasets\": [\n";
  List.iteri
    (fun i r ->
      add "    {\n";
      add "      \"name\": \"%s\",\n" (json_escape r.name);
      add "      \"n_problems\": %d,\n" r.n_problems;
      add "      \"classes\": [\n";
      List.iteri
        (fun j c ->
          add "        { \"class\": \"%s\", \"count\": %d, \"solver_avg_ms\": { %s } }%s\n"
            (json_escape c.label) c.count
            (String.concat ", "
               (List.map
                  (fun (name, ms) -> Printf.sprintf "\"%s\": %s" name (json_float ms))
                  c.solver_ms))
            (if j < List.length r.classes - 1 then "," else ""))
        r.classes;
      add "      ],\n";
      add "      \"batch_lp\": [\n";
      List.iteri
        (fun j br ->
          (match br.timing with
          | Ok (wall_ms, problems_per_s) ->
              add "        { \"jobs\": %d, \"wall_ms\": %s, \"problems_per_s\": %s }%s\n" br.jobs
                (json_float wall_ms) (json_float problems_per_s)
                (if j < List.length r.batch - 1 then "," else "")
          | Error reason ->
              add "        { \"jobs\": %d, \"skipped\": \"%s\" }%s\n" br.jobs
                (json_escape reason)
                (if j < List.length r.batch - 1 then "," else "")))
        r.batch;
      add "      ],\n";
      add "      \"obs\": { %s }\n"
        (String.concat ", "
           (List.map (fun (n, v) -> Printf.sprintf "\"%s\": %d" (json_escape n) v) r.obs));
      add "    }%s\n" (if i < List.length results - 1 then "," else ""))
    results;
  add "  ]\n";
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let solver_table name classes =
  Table.print
    ~title:(Printf.sprintf "LP solver runtime for %s subgraphs (avg per subgraph)" name)
    ~header:("Subgraphs" :: List.map (fun (n, _) -> n) solvers)
    (List.map
       (fun c ->
         if c.count = 0 then (c.label ^ " (0)") :: List.map (fun _ -> "-") solvers
         else
           Printf.sprintf "%s (%d)" c.label c.count
           :: List.map (fun (_, ms) -> Table.fmt_ms ms) c.solver_ms)
       classes)

let batch_table name runs =
  Table.print
    ~title:(Printf.sprintf "Batch LP throughput for %s (all subgraphs per run)" name)
    ~header:[ "jobs"; "wall"; "problems/s" ]
    (List.map
       (fun r ->
         match r.timing with
         | Ok (wall_ms, problems_per_s) ->
             [ string_of_int r.jobs; Table.fmt_ms wall_ms; Printf.sprintf "%.1f" problems_per_s ]
         | Error _ -> [ string_of_int r.jobs; "skipped"; "(single domain)" ])
       runs)

let run ?(json = "BENCH_flow.json") ~scale_name datasets =
  Printf.printf "Comparing LP solvers (%s) and batch scaling on %d domains...\n%!"
    (String.concat "/" (List.map fst solvers))
    (Batch.recommended_jobs ());
  let results =
    List.map
      (fun d ->
        let name = d.Workload.spec.Tin_datasets.Spec.name in
        Printf.printf "  %s: %d subgraphs%!" name (List.length d.Workload.problems);
        let measured = List.map measure_problem d.Workload.problems in
        Printf.printf " ... solvers done%!";
        let batch = measure_batch d.Workload.problems in
        Printf.printf ", batch done\n%!";
        let obs = obs_snapshot d.Workload.problems in
        {
          name;
          n_problems = List.length d.Workload.problems;
          classes = class_summaries measured;
          batch;
          obs;
        })
      datasets
  in
  print_newline ();
  List.iter
    (fun r ->
      solver_table r.name r.classes;
      batch_table r.name r.batch;
      print_newline ())
    results;
  write_json json ~scale_name results;
  Printf.printf "Solver benchmark written to %s\n" json
