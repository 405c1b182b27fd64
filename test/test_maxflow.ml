(* Classical (non-temporal) max-flow substrate: residual networks,
   Dinic, push-relabel, the time-expanded reduction, and the
   send-time-compressed engine the pipelines finish with. *)

open Tin_testlib
module Net = Tin_maxflow.Net
module Dinic = Tin_maxflow.Dinic
module PR = Tin_maxflow.Push_relabel
module TE = Tin_maxflow.Time_expand

(* CLRS figure: classic 6-node network with max flow 23. *)
let clrs () =
  let net = Net.create ~n:6 in
  let add s d c = ignore (Net.add_arc net ~src:s ~dst:d ~cap:c) in
  add 0 1 16.0;
  add 0 2 13.0;
  add 1 2 10.0;
  add 2 1 4.0;
  add 1 3 12.0;
  add 3 2 9.0;
  add 2 4 14.0;
  add 4 3 7.0;
  add 3 5 20.0;
  add 4 5 4.0;
  net

let test_dinic_clrs () =
  Alcotest.(check (float 1e-9)) "Dinic" 23.0 (Dinic.max_flow (clrs ()) ~source:0 ~sink:5)

let test_pr_clrs () =
  Alcotest.(check (float 1e-9)) "push-relabel" 23.0 (PR.max_flow (clrs ()) ~source:0 ~sink:5)

let test_pr_trivial () =
  let net = Net.create ~n:2 in
  ignore (Net.add_arc net ~src:0 ~dst:1 ~cap:7.0);
  Alcotest.(check (float 1e-9)) "single arc" 7.0 (PR.max_flow net ~source:0 ~sink:1);
  let empty = Net.create ~n:3 in
  Alcotest.(check (float 1e-9)) "no arcs" 0.0 (PR.max_flow empty ~source:0 ~sink:2)

let test_disconnected () =
  let net = Net.create ~n:4 in
  ignore (Net.add_arc net ~src:0 ~dst:1 ~cap:5.0);
  ignore (Net.add_arc net ~src:2 ~dst:3 ~cap:5.0);
  Alcotest.(check (float 1e-9)) "no path" 0.0 (Dinic.max_flow net ~source:0 ~sink:3)

let test_parallel_arcs () =
  let net = Net.create ~n:2 in
  ignore (Net.add_arc net ~src:0 ~dst:1 ~cap:2.0);
  ignore (Net.add_arc net ~src:0 ~dst:1 ~cap:3.0);
  Alcotest.(check (float 1e-9)) "parallel arcs add" 5.0 (Dinic.max_flow net ~source:0 ~sink:1)

let test_flow_conservation () =
  let net = clrs () in
  ignore (Dinic.max_flow net ~source:0 ~sink:5);
  (* Check per-node conservation using per-arc flows. *)
  let inflow = Array.make 6 0.0 and outflow = Array.make 6 0.0 in
  for a = 0 to (2 * Net.n_arcs net) - 1 do
    if a mod 2 = 0 then begin
      let f = Net.flow net a in
      Alcotest.(check bool) "capacity respected" true (f <= Net.capacity net a +. 1e-9);
      Alcotest.(check bool) "non-negative" true (f >= -1e-9);
      let src = Net.dst net (Net.twin a) and dst = Net.dst net a in
      outflow.(src) <- outflow.(src) +. f;
      inflow.(dst) <- inflow.(dst) +. f
    end
  done;
  for v = 1 to 4 do
    Alcotest.(check (float 1e-9)) "conservation" inflow.(v) outflow.(v)
  done

let test_copy_isolates () =
  let net = clrs () in
  let copy = Net.copy net in
  ignore (Dinic.max_flow net ~source:0 ~sink:5);
  Alcotest.(check (float 1e-9)) "copy untouched" 0.0 (Net.flow copy 0);
  Alcotest.(check (float 1e-9)) "copy solves fresh" 23.0 (Dinic.max_flow copy ~source:0 ~sink:5)

let test_reset () =
  let net = clrs () in
  ignore (Dinic.max_flow net ~source:0 ~sink:5);
  Net.reset net;
  Alcotest.(check (float 1e-9)) "solves again after reset" 23.0
    (PR.max_flow net ~source:0 ~sink:5)

let test_add_arc_validation () =
  let net = Net.create ~n:2 in
  Alcotest.check_raises "bad capacity" (Invalid_argument "Net.add_arc: bad capacity") (fun () ->
      ignore (Net.add_arc net ~src:0 ~dst:1 ~cap:(-1.0)));
  Alcotest.check_raises "bad node" (Invalid_argument "Net.add_arc: node out of range") (fun () ->
      ignore (Net.add_arc net ~src:0 ~dst:7 ~cap:1.0))

let test_source_eq_sink () =
  let net = Net.create ~n:2 in
  Alcotest.check_raises "dinic" (Invalid_argument "Dinic.max_flow: source = sink") (fun () ->
      ignore (Dinic.max_flow net ~source:0 ~sink:0));
  Alcotest.check_raises "push-relabel" (Invalid_argument "Push_relabel.max_flow: source = sink")
    (fun () -> ignore (PR.max_flow net ~source:0 ~sink:0))

let test_random_pr_eq_dinic () =
  let rng = Tin_util.Prng.create ~seed:99 in
  for _ = 1 to 150 do
    let n = 2 + Tin_util.Prng.int rng 7 in
    let net = Net.create ~n in
    let m = 1 + Tin_util.Prng.int rng 15 in
    for _ = 1 to m do
      let s = Tin_util.Prng.int rng n and d = Tin_util.Prng.int rng n in
      if s <> d then
        ignore (Net.add_arc net ~src:s ~dst:d ~cap:(float_of_int (Tin_util.Prng.int rng 10)))
    done;
    let a = PR.max_flow (Net.copy net) ~source:0 ~sink:(n - 1) in
    let b = Dinic.max_flow (Net.copy net) ~source:0 ~sink:(n - 1) in
    Alcotest.(check (float 1e-7)) "push-relabel = Dinic" a b
  done

(* --- time expansion --- *)

let test_te_fig3 () =
  Alcotest.(check (float 1e-9)) "max flow (Dinic)" 5.0
    (TE.max_flow Paper_examples.fig3 ~source:Paper_examples.s ~sink:Paper_examples.t);
  Alcotest.(check (float 1e-9)) "max flow (push-relabel)" 5.0
    (TE.max_flow ~algo:`Push_relabel Paper_examples.fig3 ~source:Paper_examples.s
       ~sink:Paper_examples.t)

let test_te_fig1a () =
  Alcotest.(check (float 1e-9)) "max flow" 5.0
    (TE.max_flow Paper_examples.fig1a ~source:Paper_examples.s ~sink:Paper_examples.t)

let test_te_chain_equals_greedy () =
  Alcotest.(check (float 1e-9)) "chain max = greedy (Lemma 1)" 7.0
    (TE.max_flow Paper_examples.fig5a ~source:Paper_examples.s ~sink:Paper_examples.t)

let test_te_strict_time () =
  let g = Graph.of_edges [ (0, 1, [ (2.0, 5.0) ]); (1, 2, [ (2.0, 5.0) ]) ] in
  Alcotest.(check (float 1e-9)) "no same-instant relay" 0.0 (TE.max_flow g ~source:0 ~sink:2)

let test_te_infinite_quantities () =
  (* Synthetic source edge: infinite quantity must be big-M'd, flow is
     capped by the finite inner edge. *)
  let syn time qty = [ Interaction.unchecked ~time ~qty ] in
  let g =
    Graph.add_edge
      (Graph.add_edge
         (Graph.add_edge Graph.empty ~src:0 ~dst:1 (syn neg_infinity infinity))
         ~src:1 ~dst:2
         [ Interaction.make ~time:5.0 ~qty:7.0 ])
      ~src:2 ~dst:3 (syn infinity infinity)
  in
  Alcotest.(check (float 1e-9)) "finite bottleneck" 7.0 (TE.max_flow g ~source:0 ~sink:3)

let test_te_structure () =
  let te = TE.build Paper_examples.fig3 ~source:Paper_examples.s ~sink:Paper_examples.t in
  Alcotest.(check bool) "has event nodes" true (te.TE.n_event_nodes > 0);
  Alcotest.(check bool) "bounded by interactions" true
    (* two (b, a) nodes per distinct event time, at most two event
       times per interaction *)
    (te.TE.n_event_nodes <= 4 * Graph.n_interactions Paper_examples.fig3)

let test_te_incoming_to_source_ignored () =
  let g =
    Graph.of_edges [ (0, 1, [ (1.0, 5.0) ]); (1, 0, [ (2.0, 3.0) ]); (1, 2, [ (3.0, 4.0) ]) ]
  in
  Alcotest.(check (float 1e-9)) "flow unaffected by backwash" 4.0 (TE.max_flow g ~source:0 ~sink:2)

(* --- send-time-compressed engine --- *)

let engine g ~source ~sink = Tin_maxflow.max_flow g ~source ~sink

let test_engine_fig3 () =
  Alcotest.(check (float 1e-9)) "paper Fig. 3" 5.0
    (engine Paper_examples.fig3 ~source:Paper_examples.s ~sink:Paper_examples.t)

let test_engine_arrival_at_send_time () =
  (* What 1 receives at t = 2 is not spendable by its send at t = 2,
     only by the one at t = 3. *)
  let g = Graph.of_edges [ (0, 1, [ (2.0, 5.0) ]); (1, 2, [ (2.0, 5.0) ]) ] in
  Alcotest.(check (float 1e-9)) "not forwarded at the same instant" 0.0 (engine g ~source:0 ~sink:2);
  let g = Graph.of_edges [ (0, 1, [ (2.0, 5.0) ]); (1, 2, [ (2.0, 5.0); (3.0, 4.0) ]) ] in
  Alcotest.(check (float 1e-9)) "forwarded by the next send" 4.0 (engine g ~source:0 ~sink:2)

let test_engine_same_time_sends () =
  (* Two sends of vertex 1 at t = 3, to different receivers, draw on
     the one buffer node: together they cannot move more than the 5
     units received before t = 3. *)
  let g =
    Graph.of_edges
      [
        (0, 1, [ (1.0, 5.0) ]);
        (1, 2, [ (3.0, 4.0) ]);
        (1, 3, [ (3.0, 4.0) ]);
        (2, 3, [ (4.0, 10.0) ]);
      ]
  in
  Alcotest.(check (float 1e-9)) "shared buffer" 5.0 (engine g ~source:0 ~sink:3)

let test_engine_infinite_quantities () =
  let syn time qty = [ Interaction.unchecked ~time ~qty ] in
  let g =
    Graph.add_edge
      (Graph.add_edge
         (Graph.add_edge Graph.empty ~src:0 ~dst:1 (syn neg_infinity infinity))
         ~src:1 ~dst:2
         [ Interaction.make ~time:5.0 ~qty:7.0 ])
      ~src:2 ~dst:3 (syn infinity infinity)
  in
  Alcotest.(check (float 1e-9)) "finite bottleneck" 7.0 (engine g ~source:0 ~sink:3)

let test_engine_direct_source_sink () =
  let g = Graph.of_edges [ (0, 2, [ (1.0, 3.0) ]); (0, 1, [ (1.0, 2.0) ]); (1, 2, [ (2.0, 2.0) ]) ] in
  Alcotest.(check (float 1e-9)) "direct plus relayed" 5.0 (engine g ~source:0 ~sink:2)

let test_engine_terminals_carry_nothing () =
  (* The sink's send to 1 (100 units at t = 0) and 1's send back into
     the source carry nothing; only the source's 2 units reach 3. *)
  let g =
    Graph.of_edges
      [ (0, 1, [ (1.0, 2.0) ]); (3, 1, [ (0.0, 100.0) ]); (1, 0, [ (1.5, 2.0) ]); (1, 3, [ (2.0, 50.0) ]) ]
  in
  Alcotest.(check (float 1e-9)) "terminals" 2.0 (engine g ~source:0 ~sink:3)

let test_engine_dead_arrivals () =
  (* 1 receives at t = 5, after its only send at t = 1: the arrival is
     dead, and must not leak into vertex 2's nodes, which come next. *)
  let g = Graph.of_edges [ (0, 1, [ (5.0, 10.0) ]); (1, 3, [ (1.0, 4.0) ]); (2, 3, [ (6.0, 10.0) ]) ] in
  Alcotest.(check (float 1e-9)) "dead arrival" 0.0 (engine g ~source:0 ~sink:3)

let test_engine_class_c_stage () =
  (* A class-C DAG whose residual after Algorithms 1 and 2 still needs
     a max-flow solve: the pipeline reports the Dinic stage. *)
  let r = Tin_core.Pipeline.report Paper_examples.fig3 ~source:Paper_examples.s ~sink:Paper_examples.t in
  Alcotest.(check bool) "class C" true (r.Tin_core.Pipeline.cls = Tin_core.Pipeline.C);
  Alcotest.(check string) "stage" "dinic-solve" (Tin_core.Pipeline.stage_name r.Tin_core.Pipeline.stage);
  Alcotest.(check (float 1e-9)) "value" 5.0 r.Tin_core.Pipeline.value

let () =
  Alcotest.run "maxflow"
    [
      ( "solvers",
        [
          Alcotest.test_case "Dinic on CLRS" `Quick test_dinic_clrs;
          Alcotest.test_case "push-relabel on CLRS" `Quick test_pr_clrs;
          Alcotest.test_case "push-relabel edge cases" `Quick test_pr_trivial;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "parallel arcs" `Quick test_parallel_arcs;
          Alcotest.test_case "flow conservation" `Quick test_flow_conservation;
          Alcotest.test_case "copy isolates" `Quick test_copy_isolates;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "arc validation" `Quick test_add_arc_validation;
          Alcotest.test_case "source = sink" `Quick test_source_eq_sink;
          Alcotest.test_case "push-relabel = Dinic (random)" `Quick test_random_pr_eq_dinic;
        ] );
      ( "time-expansion",
        [
          Alcotest.test_case "figure 3" `Quick test_te_fig3;
          Alcotest.test_case "figure 1(a)" `Quick test_te_fig1a;
          Alcotest.test_case "chain = greedy" `Quick test_te_chain_equals_greedy;
          Alcotest.test_case "strict time" `Quick test_te_strict_time;
          Alcotest.test_case "infinite quantities" `Quick test_te_infinite_quantities;
          Alcotest.test_case "structure" `Quick test_te_structure;
          Alcotest.test_case "incoming to source" `Quick test_te_incoming_to_source_ignored;
        ] );
      ( "engine",
        [
          Alcotest.test_case "figure 3" `Quick test_engine_fig3;
          Alcotest.test_case "arrival at a send time" `Quick test_engine_arrival_at_send_time;
          Alcotest.test_case "same-time sends share a node" `Quick test_engine_same_time_sends;
          Alcotest.test_case "infinite quantities" `Quick test_engine_infinite_quantities;
          Alcotest.test_case "direct source-sink" `Quick test_engine_direct_source_sink;
          Alcotest.test_case "terminals carry nothing" `Quick test_engine_terminals_carry_nothing;
          Alcotest.test_case "dead arrivals" `Quick test_engine_dead_arrivals;
          Alcotest.test_case "class C runs Dinic" `Quick test_engine_class_c_stage;
        ] );
    ]
