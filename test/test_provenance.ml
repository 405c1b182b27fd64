(* Provenance engine (lib/core/provenance.ml): hand-worked policy
   vectors, budget spilling, the source-rooted = greedy contract, and
   qcheck properties tying provenance to the greedy scan and the flow
   decomposition on random problems. *)

open Tin_testlib
module Prov = Tin_core.Provenance
module Greedy = Tin_core.Greedy
module Decompose = Tin_core.Decompose
module Batch = Tin_core.Batch
module TE = Tin_maxflow.Time_expand
module Fcmp = Tin_util.Fcmp
module Prng = Tin_util.Prng

(* The engine scans a [Compact.t]; the tests build [Graph.t]s, which
   the greedy reference also takes, and convert. *)
let run ?policy ?budget ?source ?absorb ?trace g =
  Prov.run ?policy ?budget ?source ?absorb ?trace (Compact.of_graph g)

let add g ~src ~dst ~time ~qty =
  Graph.add_interaction g ~src ~dst (Interaction.make ~time ~qty)

(* The worked example used throughout: 0 →(t=1,q=5)→ 1, 2 →(t=2,q=3)→ 1,
   1 →(t=3,q=6)→ 3.  Scan order numbers them #0, #1, #2.  Vertex 2's
   send is uncovered, so 3 units are born at #1; vertex 1 then ships 6
   of its 8 buffered units to the absorbing vertex 3. *)
let worked_example () =
  let g = add Graph.empty ~src:0 ~dst:1 ~time:1.0 ~qty:5.0 in
  let g = add g ~src:2 ~dst:1 ~time:2.0 ~qty:3.0 in
  add g ~src:1 ~dst:3 ~time:3.0 ~qty:6.0

let vector r v =
  match List.assoc_opt v r.Prov.vectors with
  | Some xs -> xs
  | None -> Alcotest.failf "no vector for vertex %d" v

let mass_of vec ~index =
  match
    List.find_opt (function Prov.Inter i, _ -> i.index = index | _ -> false) vec
  with
  | Some (_, m) -> m
  | None -> 0.0

let check_vector name vec expected =
  Alcotest.(check int) (name ^ ": group count") (List.length expected) (List.length vec);
  List.iter
    (fun (index, mass) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "%s: mass of #%d" name index) mass
        (mass_of vec ~index))
    expected

let test_lrb_worked_example () =
  let r = run ~policy:Prov.Lrb ~absorb:3 (worked_example ()) in
  (* Oldest-born first: the sink drains all of #0 then one unit of #1. *)
  check_vector "sink" (vector r 3) [ (0, 5.0); (1, 1.0) ];
  check_vector "v1 remainder" (vector r 1) [ (1, 2.0) ];
  Alcotest.(check (float 0.0)) "sink total" 6.0 (List.assoc 3 r.Prov.totals);
  Alcotest.(check int) "no spills" 0 r.Prov.spills

let test_mrb_worked_example () =
  let r = run ~policy:Prov.Mrb ~absorb:3 (worked_example ()) in
  (* Newest-born first: all of #1 moves, then three units of #0. *)
  check_vector "sink" (vector r 3) [ (0, 3.0); (1, 3.0) ];
  check_vector "v1 remainder" (vector r 1) [ (0, 2.0) ]

let test_prop_worked_example () =
  let r = run ~policy:Prov.Proportional ~absorb:3 (worked_example ()) in
  (* Pro rata at ratio 6/8. *)
  check_vector "sink" (vector r 3) [ (0, 3.75); (1, 2.25) ];
  check_vector "v1 remainder" (vector r 1) [ (0, 1.25); (1, 0.75) ]

let test_origin_metadata () =
  let r = run ~policy:Prov.Lrb ~absorb:3 (worked_example ()) in
  match vector r 3 with
  | (Prov.Inter i, _) :: _ ->
      Alcotest.(check int) "origin src" 0 i.src;
      Alcotest.(check int) "origin dst" 1 i.dst;
      Alcotest.(check (float 0.0)) "origin time" 1.0 i.time;
      Alcotest.(check (float 0.0)) "origin qty" 5.0 i.qty
  | _ -> Alcotest.fail "expected an interaction-level origin first"

let test_budget_spills_to_coarse_groups () =
  (* Eight distinct feeders into a hub, budget 2: the hub's vector must
     coarsen instead of holding eight entries, without losing mass. *)
  let g =
    List.fold_left
      (fun g i ->
        add g ~src:(10 + i) ~dst:1 ~time:(float_of_int i) ~qty:1.0)
      Graph.empty
      (List.init 8 Fun.id)
  in
  let r = run ~policy:Prov.Lrb ~budget:2 g in
  let vec = vector r 1 in
  Alcotest.(check bool) "spilled" true (r.Prov.spills > 0);
  Alcotest.(check bool) "within budget" true (List.length vec <= 2);
  Alcotest.(check bool) "coarse group present" true
    (List.exists
       (function (Prov.Any | Prov.Vertex _), _ -> true | Prov.Inter _, _ -> false)
       vec);
  let sum = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 vec in
  Alcotest.(check (float 1e-12)) "mass conserved across spills" 8.0 sum

let test_rooted_matches_greedy () =
  (* Source-rooted mode mirrors the greedy scan bit for bit: a cycle
     through vertex 2 plus a direct shipment to the sink. *)
  let g = add Graph.empty ~src:0 ~dst:1 ~time:1.0 ~qty:5.0 in
  let g = add g ~src:1 ~dst:2 ~time:2.0 ~qty:3.0 in
  let g = add g ~src:2 ~dst:1 ~time:3.0 ~qty:2.0 in
  let g = add g ~src:1 ~dst:3 ~time:4.0 ~qty:9.0 in
  let r = run ~policy:Prov.Proportional ~source:0 ~absorb:3 g in
  Alcotest.(check (float 0.0)) "sink total = greedy flow" (Greedy.flow g ~source:0 ~sink:3)
    (List.assoc 3 r.Prov.totals);
  let buffers = Greedy.buffers g ~source:0 ~sink:3 in
  Alcotest.(check bool) "totals = Greedy.buffers (bit-identical)" true
    (List.equal
       (fun (v, a) (w, b) -> v = w && Float.equal a b)
       buffers r.Prov.totals)

let test_drain_after_rounding () =
  (* Vertex 1's scalar buffer rounds 2e18 + 2 to 2e18 while its vector
     keeps the 2-unit entry; the send at t=28 drains the scalar, so it
     must drain the vector too, under every policy. *)
  let g = add Graph.empty ~src:0 ~dst:1 ~time:11.0 ~qty:2e18 in
  let g = add g ~src:0 ~dst:1 ~time:15.0 ~qty:2.0 in
  let g = add g ~src:1 ~dst:2 ~time:28.0 ~qty:7e18 in
  List.iter
    (fun policy ->
      let r = run ~policy ~source:0 ~absorb:2 g in
      let name = Prov.policy_name policy in
      let sum v = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 (vector r v) in
      Alcotest.(check (float 0.0)) (name ^ ": vertex 1 drained") 0.0 (List.assoc 1 r.Prov.totals);
      Alcotest.(check int) (name ^ ": vertex 1 vector empty") 0 (List.length (vector r 1));
      Alcotest.(check (float 0.0)) (name ^ ": sink vector = sink total")
        (List.assoc 2 r.Prov.totals) (sum 2))
    [ Prov.Lrb; Prov.Mrb; Prov.Proportional ]

let test_trace_callback () =
  let batches = ref [] in
  let trace k batch = batches := (k, batch) :: !batches in
  ignore (run ~policy:Prov.Lrb ~absorb:3 ~trace (worked_example ()));
  let batches = List.rev !batches in
  Alcotest.(check (list int)) "trace fires per moving interaction in scan order"
    [ 0; 1; 2 ] (List.map fst batches);
  let shipped (_, batch) = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 batch in
  Alcotest.(check (list (float 1e-12))) "each batch carries the shipped quantity"
    [ 5.0; 3.0; 6.0 ] (List.map shipped batches)

let test_source_eq_absorb_absent () =
  (* The labels are compared, not their slots: a source that is also
     the absorbing vertex is rejected even when the label is absent
     from the network, as Greedy.flow rejects source = sink. *)
  Alcotest.check_raises "absent source = absorb"
    (Invalid_argument "Provenance: source = absorb")
    (fun () -> ignore (run ~source:99 ~absorb:99 (worked_example ())));
  Alcotest.check_raises "present source = absorb"
    (Invalid_argument "Provenance: source = absorb")
    (fun () -> ignore (run ~source:0 ~absorb:0 (worked_example ())))

let test_policy_of_string () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Prov.policy_name p ^ " round-trips")
        true
        (Prov.policy_of_string (Prov.policy_name p) = Some p))
    [ Prov.Lrb; Prov.Mrb; Prov.Proportional ];
  Alcotest.(check bool) "proportional alias" true
    (Prov.policy_of_string "Proportional" = Some Prov.Proportional);
  Alcotest.(check bool) "garbage rejected" true (Prov.policy_of_string "fifo" = None)

let test_jobs_determinism () =
  (* Policy scans embedded in a Batch.map_reduce must be bit-identical
     across job counts: same graphs in, same vectors out, regardless of
     which domain computed which index. *)
  let rng = Prng.create ~seed:7 in
  let cases = Array.init 8 (fun _ -> Gen.random_digraph rng) in
  let run_all ~jobs policy =
    let acc =
      Batch.map_reduce ~jobs ~n:(Array.length cases)
        ~init:(fun () -> ref [])
        ~body:(fun acc i ->
          let g, _, sink = cases.(i) in
          acc := (i, run ~policy ~absorb:sink g) :: !acc)
        ~merge:(fun a b ->
          a := !b @ !a;
          a)
        ()
    in
    List.sort compare !acc
  in
  List.iter
    (fun policy ->
      Alcotest.(check bool)
        (Prov.policy_name policy ^ ": jobs=1 = jobs=4")
        true
        (run_all ~jobs:1 policy = run_all ~jobs:4 policy))
    [ Prov.Lrb; Prov.Mrb ]

(* --- properties ---------------------------------------------------- *)

let prop_decomposition_conserves rng =
  (* Satellite invariant: peeled path amounts reassemble the max-flow
     value up to eps-sized crumbs per path. *)
  let g, source, sink = Gen.random_dag rng in
  let value, paths = Decompose.max_flow_paths g ~source ~sink in
  let total = List.fold_left (fun acc p -> acc +. p.Decompose.amount) 0.0 paths in
  let eps = 1e-6 *. float_of_int (max 1 (List.length paths)) in
  Float.abs (value -. total) <= eps
  && List.for_all (fun p -> p.Decompose.amount > 0.0) paths

(* A random graph with its terminals and a small entry budget (2-4,
   the engine's minimum is 2), drawn after the graph so that buffers
   spill into coarser origin groups on some cases. *)
let rooted_case rng =
  let g, source, sink = Gen.random_digraph rng in
  (g, source, sink, 2 + Prng.int rng 3)

let prop_proportional_totals_equal_greedy rng =
  (* The Proportional run rooted at the source, over the Compact.t of
     a random graph, absorbs at the sink exactly (Float.equal, not
     approx) what the greedy scan over the Graph.t delivers, and holds
     Greedy.buffers at every vertex — under the default budget and
     under a small one where buffers spill. *)
  let g, source, sink, small = rooted_case rng in
  let greedy = Greedy.buffers g ~source ~sink in
  List.for_all
    (fun budget ->
      let r = run ~policy:Prov.Proportional ~budget ~source ~absorb:sink g in
      Float.equal (Greedy.flow g ~source ~sink)
        (match List.assoc_opt sink r.Prov.totals with Some m -> m | None -> 0.0)
      && List.equal (fun (v, a) (w, b) -> v = w && Float.equal a b) greedy r.Prov.totals)
    [ Prov.default_budget; small ]

(* The small budgets of the property above do spill on its inputs, so
   the exact totals are checked across spills too. *)
let test_small_budgets_spill () =
  let spilled =
    List.init 200 (fun seed ->
        let g, source, sink, budget = rooted_case (Prng.create ~seed) in
        (run ~policy:Prov.Proportional ~budget ~source ~absorb:sink g).Prov.spills > 0)
    |> List.filter Fun.id |> List.length
  in
  Alcotest.(check bool) (Printf.sprintf "%d of 200 cases spill" spilled) true (spilled > 0)

let prop_policies_agree_on_totals rng =
  (* Selection policy decides *which* units move, never *how many*:
     per-vertex totals are policy-independent, bit for bit. *)
  let g, _, sink = Gen.random_digraph rng in
  let totals policy = (run ~policy ~absorb:sink g).Prov.totals in
  let reference = totals Prov.Proportional in
  List.for_all
    (fun policy ->
      List.equal
        (fun (v, a) (w, b) -> v = w && Float.equal a b)
        reference (totals policy))
    [ Prov.Lrb; Prov.Mrb ]

let prop_vectors_conserve_mass rng =
  (* Every vertex's provenance vector sums to its buffered total. *)
  let g, _, sink = Gen.random_digraph rng in
  List.for_all
    (fun policy ->
      let r = run ~policy ~absorb:sink g in
      List.for_all
        (fun (v, vec) ->
          let total =
            match List.assoc_opt v r.Prov.totals with Some m -> m | None -> 0.0
          in
          let sum = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 vec in
          Fcmp.approx_eq ~eps:1e-6 total sum
          && List.for_all (fun (_, m) -> m >= 0.0) vec)
        r.Prov.vectors)
    [ Prov.Lrb; Prov.Mrb; Prov.Proportional ]

let () =
  Alcotest.run "provenance"
    [
      ( "policies",
        [
          Alcotest.test_case "lrb worked example" `Quick test_lrb_worked_example;
          Alcotest.test_case "mrb worked example" `Quick test_mrb_worked_example;
          Alcotest.test_case "proportional worked example" `Quick test_prop_worked_example;
          Alcotest.test_case "origin metadata" `Quick test_origin_metadata;
          Alcotest.test_case "policy_of_string" `Quick test_policy_of_string;
        ] );
      ( "engine",
        [
          Alcotest.test_case "budget spills to coarse groups" `Quick
            test_budget_spills_to_coarse_groups;
          Alcotest.test_case "source-rooted = greedy" `Quick test_rooted_matches_greedy;
          Alcotest.test_case "small budgets spill" `Quick test_small_budgets_spill;
          Alcotest.test_case "drain after rounding" `Quick test_drain_after_rounding;
          Alcotest.test_case "trace callback" `Quick test_trace_callback;
          Alcotest.test_case "source = absorb rejected" `Quick test_source_eq_absorb_absent;
          Alcotest.test_case "deterministic across jobs" `Quick test_jobs_determinism;
        ] );
      ( "properties",
        [
          Check.seeded_property "decomposition conserves the flow value"
            prop_decomposition_conserves;
          Check.seeded_property "rooted proportional totals = greedy (exact)"
            prop_proportional_totals_equal_greedy;
          Check.seeded_property "policies agree on totals (exact)"
            prop_policies_agree_on_totals;
          Check.seeded_property "vectors conserve mass" prop_vectors_conserve_mass;
        ] );
    ]
