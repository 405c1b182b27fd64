(* Differential correctness harness (lib/verify): the invariant
   lattice holds on randomized mutated instances, an injected solver
   bug is caught and shrunk to a minimal reproducing CSV, and the
   residual audits accept the paper examples. *)

open Tin_testlib
module Verify = Tin_verify.Verify
module VGen = Tin_verify.Gen
module Fcmp = Tin_util.Fcmp
module TE = Tin_maxflow.Time_expand
module Greedy = Tin_core.Greedy
module Lp_flow = Tin_core.Lp_flow
module Preprocess = Tin_core.Preprocess
module Simplify = Tin_core.Simplify
module P = Paper_examples

let eps = Fcmp.default_policy.Fcmp.flow_eps

let explain outcome =
  String.concat "; "
    (List.map
       (fun (d : Verify.discrepancy) -> Printf.sprintf "[%s] %s" d.Verify.check d.Verify.detail)
       outcome.Verify.discrepancies)

(* --- the full lattice on paper examples and fuzzed instances --- *)

let check_clean name g ~source ~sink =
  let o = Verify.check g ~source ~sink in
  if o.Verify.discrepancies <> [] then Alcotest.failf "%s: %s" name (explain o)

let test_paper_examples_clean () =
  check_clean "fig1a" P.fig1a ~source:P.s ~sink:P.t;
  check_clean "fig3" P.fig3 ~source:P.s ~sink:P.t;
  check_clean "fig5a" P.fig5a ~source:P.s ~sink:P.t

let test_fuzz_seed42_clean () =
  let report = Verify.fuzz ~seed:42 ~cases:200 () in
  Alcotest.(check int) "cases run" 200 report.Verify.cases_run;
  match report.Verify.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "case %d (%s): %s" f.Verify.case_index f.Verify.case.VGen.family
        (explain f.Verify.outcome)

let prop_check_holds rng =
  let c = VGen.case rng in
  let o = Verify.check c.VGen.graph ~source:c.VGen.source ~sink:c.VGen.sink in
  o.Verify.discrepancies = []

(* --- individual invariants as qcheck properties --- *)

let prop_greedy_le_max rng =
  let c = VGen.case rng in
  let g = c.VGen.graph and source = c.VGen.source and sink = c.VGen.sink in
  Fcmp.approx_le ~eps (Greedy.flow g ~source ~sink) (TE.max_flow g ~source ~sink)

let lp_value dense g ~source ~sink =
  match Lp_flow.solve ~dense g ~source ~sink with
  | Ok v -> v
  | Error _ -> Alcotest.fail "LP solver failed"

let prop_lp_solvers_agree rng =
  let c = VGen.case rng in
  let g = c.VGen.graph and source = c.VGen.source and sink = c.VGen.sink in
  let reference = TE.max_flow g ~source ~sink in
  List.for_all
    (fun dense -> Fcmp.approx_eq ~eps (lp_value dense g ~source ~sink) reference)
    [ true; false ]

let prop_te_algos_agree rng =
  let c = VGen.case rng in
  let g = c.VGen.graph and source = c.VGen.source and sink = c.VGen.sink in
  Fcmp.approx_eq ~eps
    (TE.max_flow ~algo:`Push_relabel g ~source ~sink)
    (TE.max_flow ~algo:`Dinic g ~source ~sink)

let prop_preprocess_preserves rng =
  let c = VGen.case rng in
  let g = c.VGen.graph and source = c.VGen.source and sink = c.VGen.sink in
  (not (Topo.is_dag g))
  ||
  let reference = TE.max_flow g ~source ~sink in
  let pre = Preprocess.run g ~source ~sink in
  if pre.Preprocess.zero_flow then Fcmp.is_zero ~eps reference
  else Fcmp.approx_eq ~eps (TE.max_flow pre.Preprocess.graph ~source ~sink) reference

let prop_simplify_preserves rng =
  let c = VGen.case rng in
  let g = c.VGen.graph and source = c.VGen.source and sink = c.VGen.sink in
  (not (Topo.is_dag g))
  ||
  let reference = TE.max_flow g ~source ~sink in
  let sim = Simplify.run g ~source ~sink in
  Fcmp.approx_eq ~eps (TE.max_flow sim.Simplify.graph ~source ~sink) reference

(* --- injected bug: caught, shrunk, dumped, reloadable --- *)

let with_temp_dir f =
  let dir = Filename.temp_file "tin_verify" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_injected_bug_caught () =
  with_temp_dir (fun dir ->
      let extra = [ Verify.perturbed ~delta:0.5 () ] in
      let report = Verify.fuzz ~extra ~dump_dir:dir ~seed:42 ~cases:20 () in
      Alcotest.(check bool) "failures found" true (report.Verify.failures <> []);
      List.iter
        (fun (f : Verify.failure) ->
          Alcotest.(check bool)
            "disagreement reported" true
            (List.exists
               (fun (d : Verify.discrepancy) -> d.Verify.check = "max-flow-disagreement")
               f.Verify.outcome.Verify.discrepancies);
          (* Shrinking never grows the instance. *)
          Alcotest.(check bool)
            "shrunk no larger" true
            (Graph.n_interactions f.Verify.shrunk
            <= Graph.n_interactions f.Verify.case.VGen.graph);
          (* The dump is a tinflow-loadable CSV reproducing the shrunk
             instance (comment lines are skipped by the parser). *)
          match f.Verify.csv with
          | None -> Alcotest.fail "expected a dumped counterexample"
          | Some path ->
              Alcotest.(check bool) "dump exists" true (Sys.file_exists path);
              let reloaded = Io.load_csv_graph path in
              (* The CSV records edges only, so compare modulo isolated
                 vertices. *)
              let expected =
                Graph.fold_edges
                  (fun s d is acc -> Graph.add_edge acc ~src:s ~dst:d is)
                  f.Verify.shrunk Graph.empty
              in
              Alcotest.check Check.graph "dump reloads to the shrunk instance" expected reloaded)
        report.Verify.failures)

let test_shrink_still_fails () =
  let extra = [ Verify.perturbed ~delta:1.0 () ] in
  let rng = Tin_util.Prng.create ~seed:11 in
  let c = VGen.case rng in
  let g = c.VGen.graph and source = c.VGen.source and sink = c.VGen.sink in
  Alcotest.(check bool) "original fails" true (Verify.fails ~extra g ~source ~sink);
  let shrunk = Verify.shrink ~extra g ~source ~sink in
  Alcotest.(check bool) "shrunk still fails" true (Verify.fails ~extra shrunk ~source ~sink)

(* --- audits reject infeasible solutions --- *)

let test_perturbed_oracle_named () =
  let o = Verify.perturbed ~delta:0.25 () in
  Alcotest.(check bool) "name mentions injection" true
    (String.length o.Verify.name > 0 && String.sub o.Verify.name 0 8 = "injected")

let () =
  Alcotest.run "verify"
    [
      ( "lattice",
        [
          Alcotest.test_case "paper examples clean" `Quick test_paper_examples_clean;
          Alcotest.test_case "fuzz seed 42 x200 clean" `Quick test_fuzz_seed42_clean;
          Check.seeded_property ~count:60 "check holds on generated instances" prop_check_holds;
        ] );
      ( "properties",
        [
          Check.seeded_property "greedy <= max" prop_greedy_le_max;
          Check.seeded_property ~count:100 "LP solvers agree" prop_lp_solvers_agree;
          Check.seeded_property ~count:100 "static max-flow algorithms agree" prop_te_algos_agree;
          Check.seeded_property ~count:100 "preprocessing value-preserving"
            prop_preprocess_preserves;
          Check.seeded_property ~count:100 "simplification value-preserving"
            prop_simplify_preserves;
        ] );
      ( "injection",
        [
          Alcotest.test_case "injected bug caught and dumped" `Quick test_injected_bug_caught;
          Alcotest.test_case "shrunk instance still fails" `Quick test_shrink_still_fails;
          Alcotest.test_case "perturbed oracle naming" `Quick test_perturbed_oracle_named;
        ] );
    ]
