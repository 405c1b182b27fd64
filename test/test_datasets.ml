(* Dataset substrate: generator determinism and shape, subgraph
   extraction (Section 6.2). *)

module Spec = Tin_datasets.Spec
module Generator = Tin_datasets.Generator
module Extract = Tin_datasets.Extract
module Pipeline = Tin_core.Pipeline
module Gen = Tin_testlib.Gen
module Catalog = Tin_patterns.Catalog

(* A small spec so tests run fast. *)
let tiny =
  Spec.
    {
      name = "tiny";
      n_vertices = 300;
      n_base_edges = 700;
      zipf_exponent = 1.1;
      reciprocity = 0.2;
      extra_interactions_mean = 0.5;
      qty_mu = 1.0;
      qty_sigma = 1.0;
      horizon = 1000.0;
      n_cycle_seeds = 20;
      unit = "u";
    }

let net = Generator.generate ~seed:7 tiny

let test_generator_deterministic () =
  let a = Generator.generate ~seed:11 tiny and b = Generator.generate ~seed:11 tiny in
  Alcotest.(check int) "same edges" (Compact.n_edges a) (Compact.n_edges b);
  Alcotest.(check int) "same interactions" (Compact.n_interactions a) (Compact.n_interactions b);
  let sa = Generator.stats a and sb = Generator.stats b in
  Alcotest.(check (float 1e-12)) "same avg qty" sa.Generator.avg_qty sb.Generator.avg_qty

let test_generator_seed_matters () =
  let a = Generator.generate ~seed:1 tiny and b = Generator.generate ~seed:2 tiny in
  Alcotest.(check bool) "different networks" true
    (Compact.n_interactions a <> Compact.n_interactions b
    || Generator.stats a <> Generator.stats b)

let test_generator_shape () =
  let s = Generator.stats net in
  Alcotest.(check int) "all vertices present" tiny.Spec.n_vertices s.Generator.n_vertices;
  Alcotest.(check bool) "enough interactions" true
    (s.Generator.n_interactions >= tiny.Spec.n_base_edges);
  Alcotest.(check bool) "positive quantities" true (s.Generator.avg_qty > 0.0)

let test_generator_has_cycles () =
  (* Planted cycles guarantee the pattern experiments have material. *)
  let t2 = Tin_patterns.Tables.cycles2 net in
  let t3 = Tin_patterns.Tables.cycles3 net in
  Alcotest.(check bool) "2-cycles exist" true (Tin_patterns.Tables.n_rows t2 > 0);
  Alcotest.(check bool) "3-cycles exist" true (Tin_patterns.Tables.n_rows t3 > 0)

let test_generator_hub_skew () =
  (* Zipf endpoints: the hottest vertex should see far more edges than
     the median vertex. *)
  let n = Compact.n_vertices net in
  let deg = Array.init n (fun v -> Compact.out_degree net v + Compact.in_degree net v) in
  Array.sort compare deg;
  let hottest = deg.(n - 1) and median = deg.(n / 2) in
  Alcotest.(check bool) "skewed degrees" true (hottest > 5 * (max 1 median))

let test_extract_finds_subgraphs () =
  let problems = Extract.extract net in
  Alcotest.(check bool) "found some" true (List.length problems > 0);
  List.iter
    (fun p ->
      Alcotest.(check bool) "DAG" true (Topo.is_dag p.Extract.graph);
      Alcotest.(check bool) "source in graph" true (Graph.mem_vertex p.Extract.graph p.Extract.source);
      Alcotest.(check bool) "sink in graph" true (Graph.mem_vertex p.Extract.graph p.Extract.sink);
      Alcotest.(check int) "source has no incoming" 0 (Graph.in_degree p.Extract.graph p.Extract.source);
      (* The flow machinery must accept every extracted problem. *)
      let greedy = Tin_core.Greedy.flow p.Extract.graph ~source:p.Extract.source ~sink:p.Extract.sink in
      let best = Pipeline.max_flow p.Extract.graph ~source:p.Extract.source ~sink:p.Extract.sink in
      Alcotest.(check bool) "greedy <= max" true (greedy <= best +. 1e-6))
    problems

let test_extract_respects_caps () =
  let all = Extract.extract net in
  let capped = Extract.extract ~max_subgraphs:3 net in
  Alcotest.(check int) "max_subgraphs" (min 3 (List.length all)) (List.length capped);
  let small = Extract.extract ~max_interactions:2 net in
  List.iter
    (fun p -> Alcotest.(check bool) "interaction cap" true (p.Extract.n_interactions <= 2))
    small

let test_extract_none_for_acyclic_seed () =
  (* A pure DAG network has no cyclic seeds at all. *)
  let dag =
    Gen.compact_of_list
      [
        (0, 1, [ Interaction.make ~time:1.0 ~qty:1.0 ]);
        (1, 2, [ Interaction.make ~time:2.0 ~qty:1.0 ]);
      ]
  in
  Alcotest.(check int) "nothing extracted" 0 (List.length (Extract.extract dag))

let test_extract_2cycle_seed () =
  let net2 =
    Gen.compact_of_list
      [
        (10, 20, [ Interaction.make ~time:1.0 ~qty:5.0 ]);
        (20, 10, [ Interaction.make ~time:2.0 ~qty:3.0 ]);
      ]
  in
  match Extract.extract net2 with
  | [ p1; p2 ] ->
      (* both endpoints act as seeds *)
      Alcotest.(check (list int)) "seeds" [ 10; 20 ] (List.sort compare [ p1.Extract.seed; p2.Extract.seed ]);
      let flow p = Pipeline.max_flow p.Extract.graph ~source:p.Extract.source ~sink:p.Extract.sink in
      let f1 = flow p1 and f2 = flow p2 in
      Alcotest.(check (list (float 1e-9))) "cycle flows" [ 0.0; 3.0 ]
        (List.sort compare [ f1; f2 ])
  | other -> Alcotest.failf "expected 2 problems, got %d" (List.length other)

let test_extract_rejects_self_loop () =
  let net = Compact.of_entries [ (0, 0, Interaction.make ~time:1.0 ~qty:1.0) ] in
  Alcotest.check_raises "self loop" (Invalid_argument "Extract.extract: self-loop") (fun () ->
      ignore (Extract.extract net))

(* Capped extraction and truncated pattern search must not depend on
   the input format: a CSV and its [.tinb] snapshot compile to the same
   vertex numbering, so the first seeds and anchors are the same. *)
let test_capped_results_format_independent () =
  let net = Generator.generate ~seed:42 (Spec.scaled ~factor:0.02 Spec.bitcoin) in
  let csv = Filename.temp_file "tin_fmt" ".csv" and tinb = Filename.temp_file "tin_fmt" ".tinb" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ csv; tinb ])
    (fun () ->
      Io.save_csv csv (Compact.to_graph net);
      Snapshot.save tinb (Io.load csv);
      let from_csv = Io.load csv and from_tinb = Io.load tinb in
      let seeds n = List.map (fun p -> p.Extract.seed) (Extract.extract ~max_subgraphs:50 n) in
      Alcotest.(check (list int)) "capped extraction seeds" (seeds from_csv) (seeds from_tinb);
      (* One job: a truncated search over several domains keeps
         whichever instances win the race for the shared ticket
         counter, so it is not repeatable even on one format. *)
      let p1 n =
        let tables = Catalog.precompute ~with_chains:true n in
        Catalog.pb ~jobs:1 ~limit:500 n tables (Catalog.Rigid Catalog.P1)
      in
      let a = p1 from_csv and b = p1 from_tinb in
      Alcotest.(check bool) "P1 search truncated" true (a.Catalog.truncated && b.Catalog.truncated);
      Alcotest.(check int) "P1 instances" a.Catalog.instances b.Catalog.instances;
      Alcotest.(check (float 0.0)) "P1 total flow" a.Catalog.total_flow b.Catalog.total_flow)

let test_summarize () =
  let problems = Extract.extract net in
  let s = Extract.summarize problems in
  Alcotest.(check int) "count" (List.length problems) s.Extract.n_subgraphs;
  Alcotest.(check bool) "positive stats" true
    (s.Extract.avg_vertices > 0.0 && s.Extract.avg_edges > 0.0 && s.Extract.avg_interactions > 0.0);
  let empty = Extract.summarize [] in
  Alcotest.(check int) "empty" 0 empty.Extract.n_subgraphs

let test_specs_sane () =
  List.iter
    (fun (s : Spec.t) ->
      Alcotest.(check bool) (s.Spec.name ^ " positive sizes") true
        (s.Spec.n_vertices > 0 && s.Spec.n_base_edges > 0 && s.Spec.horizon > 0.0))
    Spec.all;
  let scaled = Spec.scaled ~factor:0.1 Spec.bitcoin in
  Alcotest.(check int) "scaled vertices" (Spec.bitcoin.Spec.n_vertices / 10) scaled.Spec.n_vertices

let () =
  Alcotest.run "datasets"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "seed matters" `Quick test_generator_seed_matters;
          Alcotest.test_case "shape" `Quick test_generator_shape;
          Alcotest.test_case "has cycles" `Quick test_generator_has_cycles;
          Alcotest.test_case "hub skew" `Quick test_generator_hub_skew;
        ] );
      ( "extract",
        [
          Alcotest.test_case "finds valid problems" `Quick test_extract_finds_subgraphs;
          Alcotest.test_case "respects caps" `Quick test_extract_respects_caps;
          Alcotest.test_case "acyclic network" `Quick test_extract_none_for_acyclic_seed;
          Alcotest.test_case "2-cycle seed" `Quick test_extract_2cycle_seed;
          Alcotest.test_case "self-loop rejected" `Quick test_extract_rejects_self_loop;
          Alcotest.test_case "capped results format-independent" `Quick
            test_capped_results_format_independent;
          Alcotest.test_case "summaries" `Quick test_summarize;
          Alcotest.test_case "specs sane" `Quick test_specs_sane;
        ] );
    ]
