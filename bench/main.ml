(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6) on the synthetic datasets.  The
   end-to-end benchmark of record, with repeated runs and per-layer
   splits, is perfbench/ (see BENCHMARK.json).

   Usage:
     main.exe [--quick] [target ...]
   Targets: table4 table5 table6 table7 table8 figure11 table9 table10
   table11 flows patterns ablation obs all (default: all).  [flows] is
   Tables 4-8 plus Figure 11, [patterns] is Tables 9-11; [obs] (the
   observability disabled-path guard) also runs under [all]. *)

let known_targets =
  [
    "table4"; "table5"; "table6"; "table7"; "table8"; "figure11"; "table9"; "table10"; "table11";
    "flows"; "patterns"; "ablation"; "obs"; "all";
  ]

let usage () =
  Printf.printf "usage: main.exe [--quick] [%s]*\n" (String.concat "|" known_targets);
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let targets = List.filter (fun a -> a <> "--quick") args in
  let targets = if targets = [] then [ "all" ] else targets in
  List.iter
    (fun t ->
      if not (List.mem t known_targets) then begin
        Printf.printf "unknown target: %s\n" t;
        usage ()
      end)
    targets;
  let wants t =
    List.mem t targets || List.mem "all" targets
    || (List.mem "flows" targets
       && List.mem t [ "table4"; "table5"; "table6"; "table7"; "table8"; "figure11" ])
    || (List.mem "patterns" targets && List.mem t [ "table9"; "table10"; "table11" ])
  in
  let scale = if quick then Workload.quick else Workload.full in
  Printf.printf
    "Flow Computation in Temporal Interaction Networks -- experiment harness (%s scale)\n\n"
    (if quick then "quick" else "full");
  Printf.printf "Generating datasets and extracting subgraphs...\n%!";
  let datasets, gen_secs = Tin_util.Timer.time_f (fun () -> Workload.load scale) in
  Printf.printf "  done in %.1fs\n\n%!" gen_secs;
  if wants "table4" then begin
    Flow_bench.table4 datasets;
    print_newline ()
  end;
  if wants "table5" then begin
    Flow_bench.table5 datasets;
    print_newline ()
  end;
  let flow_tables = [ ("table6", 6); ("table7", 7); ("table8", 8) ] in
  let need_measure =
    wants "figure11" || List.exists (fun (t, _) -> wants t) flow_tables
  in
  if need_measure then begin
    Printf.printf "Measuring flow-computation methods on every subgraph...\n%!";
    let measured =
      List.filter_map
        (fun (t, table_id) ->
          if wants t || wants "figure11" then begin
            let d = List.find (fun d -> d.Workload.table_id = table_id) datasets in
            Some (t, d, Flow_bench.measure_dataset d)
          end
          else None)
        flow_tables
    in
    print_newline ();
    List.iter (fun (t, d, m) -> if wants t then Flow_bench.flow_table d m) measured;
    if wants "figure11" then
      List.iter
        (fun (_, d, m) ->
          Flow_bench.figure11 d m;
          print_newline ())
        measured
  end;
  List.iter
    (fun (t, table_id) ->
      if wants t then
        Pattern_bench.run_dataset scale
          (List.find (fun d -> d.Workload.pattern_table_id = table_id) datasets))
    [ ("table9", 9); ("table10", 10); ("table11", 11) ];
  if wants "ablation" then Ablation.run datasets;
  if wants "obs" then begin
    Obs_bench.run datasets;
    print_newline ()
  end;
  print_endline "Done."
