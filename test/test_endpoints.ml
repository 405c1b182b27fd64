(* Synthetic source/sink addition (Figure 4) and vertex splitting
   (Figure 10 / cyclic pattern instances). *)

open Tin_testlib
module Endpoints = Tin_core.Endpoints
module Pipeline = Tin_core.Pipeline

let test_add_synthetic_multi () =
  (* Figure 4: x and y are sources; z and w are sinks. *)
  let g =
    Graph.of_edges
      [
        (1, 3, [ (1.0, 5.0) ]);
        (* x -> z *)
        (2, 3, [ (2.0, 3.0) ]);
        (* y -> z *)
        (2, 4, [ (5.0, 1.0) ]);
        (* y -> w *)
      ]
  in
  let ep = Endpoints.add_synthetic g in
  Alcotest.(check int) "two vertices added" (Graph.n_vertices g + 2)
    (Graph.n_vertices ep.Endpoints.graph);
  Alcotest.(check (list int)) "single source" [ ep.Endpoints.source ]
    (Graph.sources ep.Endpoints.graph);
  Alcotest.(check (list int)) "single sink" [ ep.Endpoints.sink ]
    (Graph.sinks ep.Endpoints.graph);
  (* Synthetic edges are (-inf, inf) / (+inf, inf). *)
  let se = Graph.edge ep.Endpoints.graph ~src:ep.Endpoints.source ~dst:1 in
  (match se with
  | [ i ] ->
      Alcotest.(check (float 0.0)) "time -inf" neg_infinity (Interaction.time i);
      Alcotest.(check (float 0.0)) "qty inf" infinity (Interaction.qty i)
  | _ -> Alcotest.fail "expected one synthetic interaction");
  (* Total flow: everything the original sources can push. *)
  Check.check_flow "flow through synthetic endpoints" 9.0
    (Pipeline.max_flow ep.Endpoints.graph ~source:ep.Endpoints.source ~sink:ep.Endpoints.sink)

let test_add_synthetic_already_single () =
  let g = Paper_examples.fig3 in
  let ep = Endpoints.add_synthetic g in
  Alcotest.(check int) "nothing added" (Graph.n_vertices g) (Graph.n_vertices ep.Endpoints.graph);
  Alcotest.(check int) "source kept" Paper_examples.s ep.Endpoints.source;
  Alcotest.(check int) "sink kept" Paper_examples.t ep.Endpoints.sink

let test_add_synthetic_empty () =
  Alcotest.check_raises "empty graph" (Invalid_argument "Endpoints.add_synthetic: empty graph")
    (fun () -> ignore (Endpoints.add_synthetic Graph.empty))

let test_add_synthetic_all_cyclic () =
  let g = Graph.of_edges [ (0, 1, [ (1.0, 1.0) ]); (1, 0, [ (2.0, 1.0) ]) ] in
  Alcotest.check_raises "no sources"
    (Invalid_argument "Endpoints.add_synthetic: no source vertex (all on cycles)") (fun () ->
      ignore (Endpoints.add_synthetic g))

(* Figure 4 plus a third source (6) and sink (5), with one terminal
   pinned.  A pinned source with out-degree 0 (z = 3) is one of the
   graph's sinks: it must not feed the super-sink, or the flow becomes
   infinite.  Symmetrically a pinned sink with in-degree 0 (x = 1)
   must not be fed by the super-source. *)
let fig4 =
  Graph.of_edges
    [
      (1, 3, [ (1.0, 5.0) ]);
      (2, 3, [ (2.0, 3.0) ]);
      (2, 4, [ (5.0, 1.0) ]);
      (2, 5, [ (6.0, 2.0) ]);
      (6, 4, [ (7.0, 1.0) ]);
    ]

let pinned_flows ep =
  let g = ep.Endpoints.graph and source = ep.Endpoints.source and sink = ep.Endpoints.sink in
  ( Pipeline.compute Pipeline.Greedy g ~source ~sink,
    Pipeline.max_flow g ~source ~sink )

let test_add_synthetic_pinned () =
  let ep = Endpoints.add_synthetic ~source:1 fig4 in
  Alcotest.(check int) "pinned source kept" 1 ep.Endpoints.source;
  Alcotest.(check int) "only a super-sink added" (Graph.n_vertices fig4 + 1)
    (Graph.n_vertices ep.Endpoints.graph);
  let greedy, maximum = pinned_flows ep in
  Check.check_flow "greedy from x" 5.0 greedy;
  Check.check_flow "maximum from x" 5.0 maximum;
  List.iter
    (fun (name, ep, terminal, degree) ->
      Alcotest.(check int) (name ^ ": not wired to the synthetic terminal") 0
        (degree ep.Endpoints.graph terminal);
      let greedy, maximum = pinned_flows ep in
      Alcotest.(check bool) (name ^ ": finite") true
        (Float.is_finite greedy && Float.is_finite maximum);
      Alcotest.(check bool) (name ^ ": greedy <= maximum") true (greedy <= maximum))
    [
      ("source z", Endpoints.add_synthetic ~source:3 fig4, 3, Graph.out_degree);
      ("sink x", Endpoints.add_synthetic ~sink:1 fig4, 1, Graph.in_degree);
    ]

let test_add_synthetic_pinned_only_candidate () =
  let g = Graph.of_edges [ (1, 2, [ (1.0, 5.0) ]) ] in
  Alcotest.check_raises "pinned source is the only sink"
    (Invalid_argument "Endpoints.add_synthetic: no sink vertex other than the pinned terminal")
    (fun () -> ignore (Endpoints.add_synthetic ~source:2 g));
  Alcotest.check_raises "unknown pinned vertex"
    (Invalid_argument "Endpoints.add_synthetic: unknown vertex") (fun () ->
      ignore (Endpoints.add_synthetic ~sink:7 g))

let test_split_cycle () =
  (* Cyclic transaction 1 -> 2 -> 1: flow back to the seed. *)
  let g = Graph.of_edges [ (1, 2, [ (1.0, 5.0) ]); (2, 1, [ (2.0, 3.0) ]) ] in
  let ep = Endpoints.split g ~vertex:1 in
  Alcotest.(check bool) "original vertex gone" false (Graph.mem_vertex ep.Endpoints.graph 1);
  Alcotest.(check int) "source out-degree" 1 (Graph.out_degree ep.Endpoints.graph ep.Endpoints.source);
  Alcotest.(check int) "sink in-degree" 1 (Graph.in_degree ep.Endpoints.graph ep.Endpoints.sink);
  Check.check_flow "cyclic flow" 3.0
    (Pipeline.max_flow ep.Endpoints.graph ~source:ep.Endpoints.source ~sink:ep.Endpoints.sink)

let test_split_unknown () =
  Alcotest.check_raises "unknown" (Invalid_argument "Endpoints.split: unknown vertex") (fun () ->
      ignore (Endpoints.split Graph.empty ~vertex:7))

let test_split_fig2c_instance () =
  (* Figure 2(c): the cyclic pattern instance u1 -> u2 -> u3 -> u1 has
     flow $5. *)
  let g =
    Graph.of_edges
      [
        (1, 2, [ (2.0, 5.0); (4.0, 3.0); (8.0, 1.0) ]);
        (2, 3, [ (3.0, 4.0); (5.0, 2.0) ]);
        (3, 1, [ (1.0, 2.0); (6.0, 5.0) ]);
      ]
  in
  let ep = Endpoints.split g ~vertex:1 in
  Check.check_flow "flow = $5 (paper Figure 2)" 5.0
    (Pipeline.max_flow ep.Endpoints.graph ~source:ep.Endpoints.source ~sink:ep.Endpoints.sink)

let test_split_preserves_interactions () =
  let g = Graph.of_edges [ (1, 2, [ (1.0, 5.0) ]); (2, 1, [ (2.0, 3.0) ]); (2, 3, [ (4.0, 1.0) ]) ] in
  let ep = Endpoints.split g ~vertex:1 in
  Alcotest.(check int) "interaction count preserved" 3
    (Graph.n_interactions ep.Endpoints.graph)

let () =
  Alcotest.run "endpoints"
    [
      ( "synthetic",
        [
          Alcotest.test_case "multi source/sink" `Quick test_add_synthetic_multi;
          Alcotest.test_case "already single" `Quick test_add_synthetic_already_single;
          Alcotest.test_case "empty graph" `Quick test_add_synthetic_empty;
          Alcotest.test_case "all cyclic" `Quick test_add_synthetic_all_cyclic;
          Alcotest.test_case "pinned terminal not fed" `Quick test_add_synthetic_pinned;
          Alcotest.test_case "pinned only candidate" `Quick
            test_add_synthetic_pinned_only_candidate;
        ] );
      ( "split",
        [
          Alcotest.test_case "2-cycle" `Quick test_split_cycle;
          Alcotest.test_case "unknown vertex" `Quick test_split_unknown;
          Alcotest.test_case "figure 2(c) instance" `Quick test_split_fig2c_instance;
          Alcotest.test_case "interactions preserved" `Quick test_split_preserves_interactions;
        ] );
    ]
