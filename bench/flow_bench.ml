(* Flow-computation experiments: Tables 4-8 and Figure 11. *)

module Pipeline = Tin_core.Pipeline
module Extract = Tin_datasets.Extract
module Generator = Tin_datasets.Generator
module Table = Tin_util.Table
module Timer = Tin_util.Timer
module Stats = Tin_util.Stats

(* ------------------------------------------------------------------ *)
(* Table 4: dataset characteristics                                    *)
(* ------------------------------------------------------------------ *)

let table4 datasets =
  let rows =
    List.map
      (fun d ->
        let s = Generator.stats d.Workload.net in
        [
          d.Workload.spec.Tin_datasets.Spec.name;
          Table.fmt_count (float_of_int s.Generator.n_vertices);
          Table.fmt_count (float_of_int s.Generator.n_edges);
          Table.fmt_count (float_of_int s.Generator.n_interactions);
          Table.fmt_flow s.Generator.avg_qty ^ d.Workload.spec.Tin_datasets.Spec.unit;
        ])
      datasets
  in
  Table.print
    ~title:"Table 4: Characteristics of datasets (synthetic stand-ins, scaled)"
    ~header:[ "Dataset"; "#nodes"; "#edges"; "#interactions"; "avg. flow" ]
    rows

(* ------------------------------------------------------------------ *)
(* Table 5: extracted subgraph statistics                              *)
(* ------------------------------------------------------------------ *)

let table5 datasets =
  let rows =
    List.map
      (fun d ->
        let s = Extract.summarize d.Workload.problems in
        [
          d.Workload.spec.Tin_datasets.Spec.name;
          string_of_int s.Extract.n_subgraphs;
          Printf.sprintf "%.2f" s.Extract.avg_vertices;
          Printf.sprintf "%.2f" s.Extract.avg_edges;
          Printf.sprintf "%.1f" s.Extract.avg_interactions;
        ])
      datasets
  in
  Table.print
    ~title:"Table 5: Statistics of extracted subgraphs"
    ~header:[ "Dataset"; "#subgraphs"; "avg #vertices"; "avg #edges"; "avg #interactions" ]
    rows

(* ------------------------------------------------------------------ *)
(* Tables 6-8: per-method runtimes, overall and per class              *)
(* ------------------------------------------------------------------ *)

type measured = {
  problem : Extract.problem;
  cls : Pipeline.cls;
  times : (Pipeline.method_ * float) list; (* ms *)
  greedy_flow : float;
  max_flow : float;
}

let methods = Pipeline.[ Greedy; Lp; Pre; Pre_sim; Time_expanded ]

let measure_problem (p : Extract.problem) =
  let g = p.Extract.graph and source = p.Extract.source and sink = p.Extract.sink in
  let cls = Pipeline.classify g ~source ~sink in
  let run m =
    let v, ms = Timer.time_ms (fun () -> Pipeline.compute m g ~source ~sink) in
    (v, ms)
  in
  let greedy_flow, greedy_ms = run Pipeline.Greedy in
  let lp_flow, lp_ms = run Pipeline.Lp in
  let _, pre_ms = run Pipeline.Pre in
  let presim_flow, presim_ms = run Pipeline.Pre_sim in
  let te_flow, te_ms = run Pipeline.Time_expanded in
  (* Consistency guard: the accelerated pipeline and the raw
     time-expanded Dinic must agree with the direct LP — a hard failure
     here means a bug, not noise. *)
  if
    not
      (Tin_util.Fcmp.approx_eq ~eps:1e-4 lp_flow presim_flow
      && Tin_util.Fcmp.approx_eq ~eps:1e-4 lp_flow te_flow)
  then
    failwith
      (Printf.sprintf "method disagreement on seed %d: LP=%g PreSim=%g TimeExp=%g" p.Extract.seed
         lp_flow presim_flow te_flow);
  {
    problem = p;
    cls;
    times =
      [
        (Pipeline.Greedy, greedy_ms);
        (Pipeline.Lp, lp_ms);
        (Pipeline.Pre, pre_ms);
        (Pipeline.Pre_sim, presim_ms);
        (Pipeline.Time_expanded, te_ms);
      ];
    greedy_flow;
    max_flow = presim_flow;
  }

let measure_dataset d = List.map measure_problem d.Workload.problems

let avg_times measured =
  List.map
    (fun m ->
      let ts = List.map (fun r -> List.assoc m r.times) measured in
      (m, Stats.mean ts))
    methods

let flow_table d measured =
  let spec_name = d.Workload.spec.Tin_datasets.Spec.name in
  let class_row label rows =
    match rows with
    | [] -> (label ^ " (0)") :: List.map (fun _ -> "-") methods
    | _ ->
        (label ^ Printf.sprintf " (%d)" (List.length rows))
        :: List.map (fun (_, ms) -> Table.fmt_ms ms) (avg_times rows)
  in
  let cls c = List.filter (fun r -> r.cls = c) measured in
  Table.print
    ~title:
      (Printf.sprintf "Table %d: Runtime for %s subgraphs (avg per subgraph)" d.Workload.table_id
         spec_name)
    ~header:("Subgraphs" :: List.map Pipeline.method_name methods)
    [
      class_row "All" measured;
      class_row "Class A" (cls Pipeline.A);
      class_row "Class B" (cls Pipeline.B);
      class_row "Class C" (cls Pipeline.C);
    ];
  (* Shape check the paper cares about: report the speedup. *)
  let avg = avg_times measured in
  let t m = List.assoc m avg in
  if t Pipeline.Pre_sim > 0.0 then
    Printf.printf "  -> speedup of PreSim over LP: %.1fx (Pre: %.1fx); over TimeExp: %.1fx\n\n"
      (t Pipeline.Lp /. t Pipeline.Pre_sim)
      (t Pipeline.Lp /. t Pipeline.Pre)
      (t Pipeline.Time_expanded /. t Pipeline.Pre_sim)

(* ------------------------------------------------------------------ *)
(* Figure 11: runtime vs. number of interactions                       *)
(* ------------------------------------------------------------------ *)

(* The paper buckets at <100 / 100-1000 / >1000 with a 10K-interaction
   cap; our extraction cap is 1000 (scaled down with the datasets), so
   the bucket boundaries scale accordingly. *)
let buckets = [ ("<100", 0, 99); ("100-500", 100, 499); (">500", 500, max_int) ]

let figure11 d measured =
  let rows =
    List.filter_map
      (fun (label, lo, hi) ->
        let in_bucket =
          List.filter
            (fun r ->
              let n = r.problem.Extract.n_interactions in
              n >= lo && n <= hi)
            measured
        in
        match in_bucket with
        | [] -> Some ((label ^ " (0)") :: List.map (fun _ -> "-") methods)
        | _ ->
            Some
              ((Printf.sprintf "%s (%d)" label (List.length in_bucket))
              :: List.map
                   (fun (_, ms) -> Printf.sprintf "%.3g" (ms *. 1000.0))
                   (avg_times in_bucket)))
      buckets
  in
  Table.print
    ~title:
      (Printf.sprintf "Figure 11%s: Runtime [usec] per #interactions bucket (%s)"
         (match d.Workload.table_id with 6 -> "(a)" | 7 -> "(b)" | _ -> "(c)")
         d.Workload.spec.Tin_datasets.Spec.name)
    ~header:("#interactions" :: List.map Pipeline.method_name methods)
    rows

let run datasets =
  table4 datasets;
  print_newline ();
  table5 datasets;
  print_newline ();
  let measured = List.map (fun d -> (d, measure_dataset d)) datasets in
  List.iter (fun (d, m) -> flow_table d m) measured;
  List.iter
    (fun (d, m) ->
      figure11 d m;
      print_newline ())
    measured
