(* Property-based tests (qcheck): cross-implementation agreement and
   invariant preservation on randomly generated problems.

   Three independent maximum-flow implementations exist in this
   repository — the LP formulation over our simplex, Dinic and
   push-relabel on the time-expanded static network — plus two
   flow-preserving graph reductions and the greedy lower bound.  The
   properties below tie them all together. *)

open Tin_testlib
module Greedy = Tin_core.Greedy
module Lp_flow = Tin_core.Lp_flow
module Preprocess = Tin_core.Preprocess
module Simplify = Tin_core.Simplify
module Solubility = Tin_core.Solubility
module Pipeline = Tin_core.Pipeline
module TE = Tin_maxflow.Time_expand
module Fcmp = Tin_util.Fcmp

let lp_exn g ~source ~sink =
  match Lp_flow.solve g ~source ~sink with
  | Ok v -> v
  | Error _ -> QCheck.Test.fail_report "LP solver failure"

let eps = 1e-5

let prop_greedy_le_max rng =
  let g, source, sink = Gen.random_dag rng in
  let greedy = Greedy.flow g ~source ~sink in
  let best = TE.max_flow g ~source ~sink in
  Fcmp.approx_le ~eps greedy best

let prop_lp_eq_dinic rng =
  let g, source, sink = Gen.random_dag rng in
  Fcmp.approx_eq ~eps (lp_exn g ~source ~sink) (TE.max_flow g ~source ~sink)

let prop_lp_eq_dinic_cyclic rng =
  let g, source, sink = Gen.random_digraph rng in
  Fcmp.approx_eq ~eps (lp_exn g ~source ~sink) (TE.max_flow g ~source ~sink)

let prop_engine_eq_lp_and_te rng =
  (* The send-time-compressed engine against both independent
     formulations, on a general (cyclic) digraph and on a DAG. *)
  List.for_all
    (fun (g, source, sink) ->
      let v = Tin_maxflow.max_flow g ~source ~sink in
      Fcmp.approx_eq ~eps v (lp_exn g ~source ~sink)
      && Fcmp.approx_eq ~eps v (TE.max_flow g ~source ~sink))
    [ Gen.random_digraph rng; Gen.random_dag rng ]

(* The pattern-instance entry against the path it replaced: on
   [Compact.of_graph g] for a verifier case (every [Gen] family, with
   mutations), over all edges or a random subset,
   [Tin_maxflow.max_flow_edges] equals [Pipeline.max_flow] on the
   [Compact.edges_to_graph] subgraph — split at a random vertex as
   [Endpoints.split] does, and between the case's distinct terminals
   (0 when the subset misses one). *)
let prop_edges_entry_eq_pipeline rng =
  let case = Tin_verify.Gen.case rng in
  let net = Compact.of_graph case.Tin_verify.Gen.graph in
  let all = List.init (Compact.n_edges net) Fun.id in
  let eids = if Tin_util.Prng.bool rng then all else List.filter (fun _ -> Tin_util.Prng.bool rng) all in
  let sub = Compact.edges_to_graph net eids in
  let id l = Option.get (Compact.vertex_of_label net l) in
  let entry ~source ~sink = Tin_maxflow.max_flow_edges net eids ~source:(id source) ~sink:(id sink) in
  let split =
    match Graph.vertices sub with
    | [] -> true
    | vs ->
        let v = List.nth vs (Tin_util.Prng.int rng (List.length vs)) in
        let ep = Tin_core.Endpoints.split sub ~vertex:v in
        Fcmp.approx_eq (entry ~source:v ~sink:v)
          (Pipeline.max_flow ep.Tin_core.Endpoints.graph ~source:ep.Tin_core.Endpoints.source
             ~sink:ep.Tin_core.Endpoints.sink)
  in
  let source = case.Tin_verify.Gen.source and sink = case.Tin_verify.Gen.sink in
  let distinct =
    if Graph.mem_vertex sub source && Graph.mem_vertex sub sink then
      Fcmp.approx_eq (entry ~source ~sink) (Pipeline.max_flow sub ~source ~sink)
    else entry ~source ~sink = 0.0
  in
  split && distinct

let prop_lp_dense_eq_sparse rng =
  (* The two simplex variants must agree on flow LPs (the solver
     bench's correctness premise). *)
  let g, source, sink = Gen.random_dag rng in
  let run dense =
    match Lp_flow.solve ~dense g ~source ~sink with
    | Ok v -> v
    | Error _ -> QCheck.Test.fail_report "LP solver failure"
  in
  Fcmp.approx_eq ~eps (run true) (run false)

let prop_all_simplex_variants_eq_dinic rng =
  (* Both simplex variants (dense two-phase, sparse revised) and the
     time-expanded Dinic oracle must agree to 1e-6 on random DAG flow
     problems. *)
  let g, source, sink = Gen.random_dag rng in
  let run dense =
    match Lp_flow.solve ~dense g ~source ~sink with
    | Ok v -> v
    | Error _ -> QCheck.Test.fail_report "LP solver failure"
  in
  let oracle = TE.max_flow g ~source ~sink in
  List.for_all (fun dense -> Fcmp.approx_eq ~eps:1e-6 oracle (run dense)) [ true; false ]

let prop_push_relabel_eq_dinic rng =
  let g, source, sink = Gen.random_digraph rng in
  Fcmp.approx_eq ~eps
    (TE.max_flow ~algo:`Push_relabel g ~source ~sink)
    (TE.max_flow ~algo:`Dinic g ~source ~sink)

let prop_push_relabel_eq_dinic_larger rng =
  (* Larger instances: regression guard for a push-relabel livelock
     where nodes lifted above 2n kept being re-activated. *)
  let g, source, sink = Gen.random_digraph ~max_v:14 ~max_edges:40 ~max_inter:4 rng in
  Fcmp.approx_eq ~eps
    (TE.max_flow ~algo:`Push_relabel g ~source ~sink)
    (TE.max_flow ~algo:`Dinic g ~source ~sink)

let prop_preprocess_preserves rng =
  let g, source, sink = Gen.random_dag rng in
  let before = TE.max_flow g ~source ~sink in
  let r = Preprocess.run g ~source ~sink in
  if r.Preprocess.zero_flow then Fcmp.is_zero ~eps before
  else Fcmp.approx_eq ~eps before (TE.max_flow r.Preprocess.graph ~source ~sink)

let prop_simplify_preserves rng =
  let g, source, sink = Gen.random_dag rng in
  let before = TE.max_flow g ~source ~sink in
  let r = Simplify.run g ~source ~sink in
  Fcmp.approx_eq ~eps before (TE.max_flow r.Simplify.graph ~source ~sink)

let prop_preprocess_then_simplify_preserves rng =
  let g, source, sink = Gen.random_dag rng in
  let before = TE.max_flow g ~source ~sink in
  let r = Preprocess.run g ~source ~sink in
  if r.Preprocess.zero_flow then Fcmp.is_zero ~eps before
  else begin
    let r2 = Simplify.run r.Preprocess.graph ~source ~sink in
    Fcmp.approx_eq ~eps before (TE.max_flow r2.Simplify.graph ~source ~sink)
  end

let prop_simplify_idempotent rng =
  (* Simplification runs to a fixpoint: applying it twice changes
     nothing more. *)
  let g, source, sink = Gen.random_dag rng in
  let once = (Simplify.run g ~source ~sink).Simplify.graph in
  let twice = (Simplify.run once ~source ~sink).Simplify.graph in
  Graph.equal once twice

let prop_preprocess_idempotent rng =
  let g, source, sink = Gen.random_dag rng in
  let r1 = Preprocess.run g ~source ~sink in
  if r1.Preprocess.zero_flow then true
  else begin
    let r2 = Preprocess.run r1.Preprocess.graph ~source ~sink in
    (* A second pass may still trim interactions exposed by the first
       (the paper's single topological pass is not a fixpoint
       computation), but it must never disturb the flow value. *)
    Tin_util.Fcmp.approx_eq ~eps
      (TE.max_flow r1.Preprocess.graph ~source ~sink)
      (TE.max_flow r2.Preprocess.graph ~source ~sink)
  end

let prop_pre_and_presim_agree_with_lp rng =
  let g, source, sink = Gen.random_dag rng in
  let reference = lp_exn g ~source ~sink in
  Fcmp.approx_eq ~eps reference (Pipeline.compute Pipeline.Pre g ~source ~sink)
  && Fcmp.approx_eq ~eps reference (Pipeline.compute Pipeline.Pre_sim g ~source ~sink)

let prop_chain_greedy_optimal rng =
  (* Lemma 1. *)
  let g, source, sink = Gen.random_chain rng in
  Fcmp.approx_eq ~eps (Greedy.flow g ~source ~sink) (TE.max_flow g ~source ~sink)

let prop_lemma2_greedy_optimal rng =
  (* Lemma 2 family: every interior vertex has exactly one outgoing
     edge. *)
  let g, source, sink = Gen.random_lemma2 rng in
  (* The generator guarantees the condition; double-check it. *)
  Solubility.soluble g ~source ~sink
  && Fcmp.approx_eq ~eps (Greedy.flow g ~source ~sink) (TE.max_flow g ~source ~sink)

let prop_soluble_implies_greedy_optimal rng =
  (* Whenever the Lemma-2 test passes on an arbitrary DAG, greedy must
     equal the maximum. *)
  let g, source, sink = Gen.random_dag rng in
  (not (Solubility.soluble g ~source ~sink))
  || Fcmp.approx_eq ~eps (Greedy.flow g ~source ~sink) (TE.max_flow g ~source ~sink)

let prop_flow_bounded_by_cut rng =
  (* Max flow cannot exceed the total quantity leaving the source or
     entering the sink. *)
  let g, source, sink = Gen.random_dag rng in
  let best = TE.max_flow g ~source ~sink in
  let out_cap =
    List.fold_left (fun acc (_, is) -> acc +. Interaction.total_qty is) 0.0 (Graph.out_edges g source)
  in
  let in_cap =
    List.fold_left (fun acc (_, is) -> acc +. Interaction.total_qty is) 0.0 (Graph.in_edges g sink)
  in
  Fcmp.approx_le ~eps best out_cap && Fcmp.approx_le ~eps best in_cap

let prop_greedy_trace_consistent rng =
  (* The trace's moved amounts never exceed offers, and the flow equals
     the sum of transfers into the sink. *)
  let g, source, sink = Gen.random_digraph rng in
  let flow, trace = Greedy.flow_trace g ~source ~sink in
  List.for_all (fun tr -> tr.Greedy.moved <= tr.Greedy.offered +. 1e-12) trace
  &&
  let into_sink =
    List.fold_left
      (fun acc tr -> if tr.Greedy.dst = sink then acc +. tr.Greedy.moved else acc)
      0.0 trace
  in
  Fcmp.approx_eq ~eps flow into_sink

let prop_scaling_invariance rng =
  (* Flow is linear in quantities: scaling all quantities by k scales
     the maximum flow by k. *)
  let g, source, sink = Gen.random_dag rng in
  let k = 3.0 in
  let scaled =
    Graph.fold_edges
      (fun src dst is acc ->
        Graph.add_edge acc ~src ~dst
          (List.map
             (fun i -> Interaction.make ~time:(Interaction.time i) ~qty:(k *. Interaction.qty i))
             is))
      g Graph.empty
  in
  (* keep isolated endpoint vertices *)
  let scaled = Graph.add_vertex (Graph.add_vertex scaled source) sink in
  Fcmp.approx_eq ~eps:1e-4 (k *. TE.max_flow g ~source ~sink) (TE.max_flow scaled ~source ~sink)

let prop_time_shift_invariance rng =
  (* Shifting all timestamps by a constant changes nothing. *)
  let g, source, sink = Gen.random_dag rng in
  let shifted =
    Graph.fold_edges
      (fun src dst is acc ->
        Graph.add_edge acc ~src ~dst
          (List.map
             (fun i ->
               Interaction.make ~time:(Interaction.time i +. 1000.0) ~qty:(Interaction.qty i))
             is))
      g Graph.empty
  in
  let shifted = Graph.add_vertex (Graph.add_vertex shifted source) sink in
  Fcmp.approx_eq ~eps (TE.max_flow g ~source ~sink) (TE.max_flow shifted ~source ~sink)
  && Fcmp.approx_eq ~eps (Greedy.flow g ~source ~sink) (Greedy.flow shifted ~source ~sink)

let prop_compact_roundtrip_graph rng =
  (* of_graph / to_graph is the identity on self-loop-free graphs. *)
  let g, _, _ = Gen.random_digraph rng in
  Graph.equal g (Compact.to_graph (Compact.of_graph g))

let prop_lp_variable_count rng =
  (* [n_variables] counts exactly the variables [build] creates:
     neither the source's nor the sink's sends get one. *)
  let g, source, sink = Gen.random_digraph rng in
  Lp_flow.n_variables g ~source ~sink = (Lp_flow.build g ~source ~sink).Lp_flow.n_vars

let prop_classification_consistent rng =
  let g, source, sink = Gen.random_dag rng in
  match Pipeline.classify g ~source ~sink with
  | Pipeline.A ->
      (* Class A means greedy is already exact. *)
      Fcmp.approx_eq ~eps (Greedy.flow g ~source ~sink) (TE.max_flow g ~source ~sink)
  | Pipeline.B | Pipeline.C -> true

let () =
  Alcotest.run "properties"
    [
      ( "equivalence",
        [
          Check.seeded_property "greedy <= max" prop_greedy_le_max;
          Check.seeded_property "LP = Dinic (DAGs)" prop_lp_eq_dinic;
          Check.seeded_property "LP = Dinic (cyclic)" prop_lp_eq_dinic_cyclic;
          Check.seeded_property "max_flow engine = LP = time-expanded" prop_engine_eq_lp_and_te;
          Check.seeded_property ~count:300 "edge-slice entry = pipeline (split, distinct)"
            prop_edges_entry_eq_pipeline;
          Check.seeded_property "push-relabel = Dinic" prop_push_relabel_eq_dinic;
          Check.seeded_property ~count:80 "push-relabel = Dinic (larger)"
            prop_push_relabel_eq_dinic_larger;
          Check.seeded_property "LP dense simplex = sparse simplex" prop_lp_dense_eq_sparse;
          Check.seeded_property "dense/sparse simplex = Dinic" prop_all_simplex_variants_eq_dinic;
          Check.seeded_property "Pre/PreSim = LP" prop_pre_and_presim_agree_with_lp;
        ] );
      ( "reductions",
        [
          Check.seeded_property "preprocess preserves max flow" prop_preprocess_preserves;
          Check.seeded_property "simplify preserves max flow" prop_simplify_preserves;
          Check.seeded_property "preprocess+simplify preserve" prop_preprocess_then_simplify_preserves;
          Check.seeded_property ~count:100 "simplify idempotent" prop_simplify_idempotent;
          Check.seeded_property ~count:100 "preprocess stable" prop_preprocess_idempotent;
        ] );
      ( "lemmas",
        [
          Check.seeded_property "Lemma 1: chains" prop_chain_greedy_optimal;
          Check.seeded_property "Lemma 2: one-outgoing DAGs" prop_lemma2_greedy_optimal;
          Check.seeded_property "soluble => greedy optimal" prop_soluble_implies_greedy_optimal;
        ] );
      ( "invariants",
        [
          Check.seeded_property "flow bounded by cuts" prop_flow_bounded_by_cut;
          Check.seeded_property "greedy trace consistent" prop_greedy_trace_consistent;
          Check.seeded_property "quantity scaling" prop_scaling_invariance;
          Check.seeded_property "time-shift invariance" prop_time_shift_invariance;
          Check.seeded_property "classification consistent" prop_classification_consistent;
          Check.seeded_property "LP variable count = built variables" prop_lp_variable_count;
        ] );
      ( "representation",
        [
          Check.seeded_property ~count:100 "of_graph/to_graph identity"
            prop_compact_roundtrip_graph;
        ] );
    ]
