(* Classical (non-temporal) max-flow substrate: residual networks,
   Edmonds-Karp, Dinic, and the time-expanded reduction. *)

open Tin_testlib
module Net = Tin_maxflow.Net
module EK = Tin_maxflow.Edmonds_karp
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

let test_ek_clrs () =
  Alcotest.(check (float 1e-9)) "EK" 23.0 (EK.max_flow (clrs ()) ~source:0 ~sink:5)

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
    (EK.max_flow net ~source:0 ~sink:5)

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
  Alcotest.check_raises "ek" (Invalid_argument "Edmonds_karp.max_flow: source = sink") (fun () ->
      ignore (EK.max_flow net ~source:0 ~sink:0))

let test_random_ek_eq_dinic () =
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
    let a = EK.max_flow (Net.copy net) ~source:0 ~sink:(n - 1) in
    let b = Dinic.max_flow (Net.copy net) ~source:0 ~sink:(n - 1) in
    let c = PR.max_flow (Net.copy net) ~source:0 ~sink:(n - 1) in
    Alcotest.(check (float 1e-7)) "EK = Dinic" a b;
    Alcotest.(check (float 1e-7)) "EK = push-relabel" a c
  done

(* --- time expansion --- *)

let test_te_fig3 () =
  Alcotest.(check (float 1e-9)) "max flow (Dinic)" 5.0
    (TE.max_flow Paper_examples.fig3 ~source:Paper_examples.s ~sink:Paper_examples.t);
  Alcotest.(check (float 1e-9)) "max flow (EK)" 5.0
    (TE.max_flow ~algo:`Edmonds_karp Paper_examples.fig3 ~source:Paper_examples.s
       ~sink:Paper_examples.t);
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

let () =
  Alcotest.run "maxflow"
    [
      ( "solvers",
        [
          Alcotest.test_case "EK on CLRS" `Quick test_ek_clrs;
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
          Alcotest.test_case "EK = Dinic (random)" `Quick test_random_ek_eq_dinic;
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
    ]
