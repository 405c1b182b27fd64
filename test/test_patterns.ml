(* Pattern search (Section 5): the browser, the path tables, and
   GB/PB agreement. *)

open Tin_testlib
module Pattern = Tin_patterns.Pattern
module Tables = Tin_patterns.Tables
module Catalog = Tin_patterns.Catalog
module Fcmp = Tin_util.Fcmp

let i_ t q = Interaction.make ~time:t ~qty:q

(* The Figure 2(a) transaction network (u1..u4 as 1..4). *)
let fig2a_net = Compact.of_graph Paper_examples.fig2a

let test_pattern_validation () =
  Alcotest.check_raises "same-label adjacency"
    (Invalid_argument "Pattern.make: same-label vertices cannot be adjacent") (fun () ->
      ignore (Pattern.make ~name:"bad" ~labels:[| 0; 0 |] ~edges:[ (0, 1) ]));
  Alcotest.check_raises "disconnected order"
    (Invalid_argument "Pattern.make: vertex not adjacent to any earlier vertex") (fun () ->
      ignore (Pattern.make ~name:"bad" ~labels:[| 0; 1; 2 |] ~edges:[ (1, 2) ]))

let test_catalog_shapes () =
  List.iter
    (fun r ->
      let p = Catalog.rigid_pattern r in
      Alcotest.(check bool) "source is 0" true (Pattern.source p = 0))
    Catalog.all_rigid;
  Alcotest.(check bool) "P2 cyclic" true (Pattern.is_cyclic_shape (Catalog.rigid_pattern Catalog.P2));
  Alcotest.(check bool) "P1 acyclic" false (Pattern.is_cyclic_shape (Catalog.rigid_pattern Catalog.P1))

let test_browse_p3_on_fig2a () =
  (* Figure 2(b)/(c): the only 3-hop cycle in the Figure 2(a) network
     is u1→u2→u3→u1; as an anchored pattern it is found once per
     rotation (each vertex of the cycle is a candidate "a"). *)
  let p = Catalog.rigid_pattern Catalog.P3 in
  let found = ref [] in
  Pattern.browse fig2a_net p (fun mu -> found := Array.copy mu :: !found);
  let labels mu = Array.to_list (Array.map (Compact.label fig2a_net) mu) in
  Alcotest.(check (list (list int)))
    "all three rotations"
    [ [ 1; 2; 3; 1 ]; [ 2; 3; 1; 2 ]; [ 3; 1; 2; 3 ] ]
    (List.sort compare (List.map labels !found));
  (* The paper's Figure 2(c) instance is the one anchored at u1; its
     flow is $5. *)
  let mu1 = List.find (fun mu -> Compact.label fig2a_net mu.(0) = 1) !found in
  Check.check_flow "flow anchored at u1 = 5" 5.0 (Pattern.instance_flow fig2a_net p mu1)

let test_browse_p2_on_fig2a () =
  (* 2-hop cycles in fig2a: (1,4) via 1->4,4->1... and (4,1), plus
     nothing else (1<->2? 2->1 missing).  As an anchored pattern each
     anchor counts separately. *)
  let p = Catalog.rigid_pattern Catalog.P2 in
  let found = ref [] in
  Pattern.browse fig2a_net p (fun mu ->
      found := (Compact.label fig2a_net mu.(0), Compact.label fig2a_net mu.(1)) :: !found);
  Alcotest.(check (list (pair int int))) "anchored both ways" [ (1, 4); (4, 1) ]
    (List.sort compare !found)

let test_browse_respects_distinctness () =
  (* Graph 0->1->0 only; P3 (needs three distinct vertices) must find
     nothing even though 0->1->0->1... walks exist. *)
  let net = Gen.compact_of_list [ (0, 1, [ i_ 1.0 1.0 ]); (1, 0, [ i_ 2.0 1.0 ]) ] in
  let p = Catalog.rigid_pattern Catalog.P3 in
  let count = ref 0 in
  Pattern.browse net p (fun _ -> incr count);
  Alcotest.(check int) "no instance" 0 !count

let test_browse_stop () =
  let p = Catalog.rigid_pattern Catalog.P2 in
  let count = ref 0 in
  Pattern.browse fig2a_net p (fun _ ->
      incr count;
      raise Pattern.Stop);
  Alcotest.(check int) "stopped after first" 1 !count

let test_tables_cycles2 () =
  let t = Tables.cycles2 fig2a_net in
  (* 2-cycles: 1->4->1 and 4->1->4. *)
  Alcotest.(check int) "two rows" 2 (Tables.n_rows t);
  let starts = List.map (Compact.label fig2a_net) (Tables.starts t) in
  Alcotest.(check (list int)) "starts" [ 1; 4 ] (List.sort compare starts)

let test_tables_cycles3_flow () =
  let t = Tables.cycles3 fig2a_net in
  let row =
    Array.to_list (Tables.rows t)
    |> List.find (fun r ->
           Array.map (Compact.label fig2a_net) r.Tables.verts = [| 1; 2; 3 |])
  in
  Alcotest.(check (float 1e-9)) "precomputed flow = 5" 5.0 row.Tables.flow

let test_tables_chains2 () =
  let net = Gen.compact_of_list [ (0, 1, [ i_ 1.0 4.0 ]); (1, 2, [ i_ 2.0 9.0 ]) ] in
  let t = Tables.chains2 net in
  Alcotest.(check int) "one chain" 1 (Tables.n_rows t);
  Alcotest.(check (float 1e-9)) "flow min(4,9) with time order" 4.0 (Tables.rows t).(0).Tables.flow;
  Alcotest.(check bool) "memory measured" true (Tables.memory_rows t > 0)

let test_tables_for_start () =
  let t = Tables.cycles2 fig2a_net in
  let v1 = Option.get (Compact.vertex_of_label fig2a_net 1) in
  Alcotest.(check int) "one cycle at u1" 1 (Array.length (Tables.for_start t v1))

(* GB/PB agreement on random reciprocal graphs: same instance counts
   and total flows for every catalog pattern. *)
let prop_gb_eq_pb rng =
  let net = Gen.random_compact rng in
  let tables = Catalog.precompute ~with_chains:true net in
  List.for_all
    (fun pattern ->
      let a = Catalog.gb net pattern in
      let b = Catalog.pb net tables pattern in
      a.Catalog.instances = b.Catalog.instances
      && Fcmp.approx_eq ~eps:1e-5 a.Catalog.total_flow b.Catalog.total_flow)
    Catalog.all

(* Parallel determinism: on untruncated searches, every job count must
   return exactly the sequential result — same counts, same truncation
   flags, and bit-identical flow totals (the per-anchor accumulators
   merge in a fixed chunk order regardless of jobs). *)
let prop_jobs_deterministic rng =
  let net = Gen.random_compact rng in
  let tables = Catalog.precompute ~with_chains:true net in
  let tables3 = Catalog.precompute ~jobs:3 ~with_chains:true net in
  List.for_all
    (fun pattern ->
      let gb1 = Catalog.gb ~jobs:1 net pattern in
      let pb1 = Catalog.pb ~jobs:1 net tables pattern in
      List.for_all
        (fun jobs ->
          Catalog.gb ~jobs net pattern = gb1
          && Catalog.pb ~jobs net tables pattern = pb1
          && Catalog.pb ~jobs net tables3 pattern = pb1)
        [ 2; 3; 7 ])
    Catalog.all

(* Hybrid GB (table-assisted flow lookups) must agree exactly with
   plain GB on the whole catalog — the lookup-eligible patterns read
   the same greedy reduction the tables stored, the rest fall back. *)
let prop_hybrid_gb_eq_plain rng =
  let net = Gen.random_compact rng in
  let tables = Catalog.precompute ~with_chains:true net in
  List.for_all
    (fun pattern ->
      let plain = Catalog.gb net pattern in
      let hybrid = Catalog.gb ~tables net pattern in
      plain.Catalog.instances = hybrid.Catalog.instances
      && Fcmp.approx_eq ~eps:1e-6 plain.Catalog.total_flow hybrid.Catalog.total_flow)
    Catalog.all

(* DSL round-trip over random generated patterns: printing and
   re-parsing preserves the structure up to the parser's vertex
   renumbering (first appearance in the printed edge list), and the
   printed form is a fixpoint from then on. *)
let prop_dsl_roundtrip rng =
  let canonical_labels labels =
    let seen = Hashtbl.create 8 in
    Array.map
      (fun l ->
        match Hashtbl.find_opt seen l with
        | Some c -> c
        | None ->
            let c = Hashtbl.length seen in
            Hashtbl.add seen l c;
            c)
      labels
  in
  let p = Gen.random_pattern rng in
  let p2 = Pattern.of_string (Pattern.to_string p) in
  (* Vertex i of [p] becomes [perm.(i)] of [p2]: edges print in stored
     order and the parser numbers vertices by first appearance. *)
  let perm = Array.make p.Pattern.n (-1) in
  let next = ref 0 in
  let visit v = if perm.(v) < 0 then begin perm.(v) <- !next; incr next end in
  List.iter
    (fun (u, v) ->
      visit u;
      visit v)
    p.Pattern.edges;
  let mapped_edges = List.map (fun (u, v) -> (perm.(u), perm.(v))) p.Pattern.edges in
  let mapped_labels = Array.make p.Pattern.n (-1) in
  Array.iteri (fun v l -> mapped_labels.(perm.(v)) <- l) p.Pattern.labels;
  !next = p.Pattern.n
  && p2.Pattern.n = p.Pattern.n
  && p2.Pattern.edges = mapped_edges
  && canonical_labels p2.Pattern.labels = canonical_labels mapped_labels
  && Pattern.sink p2 = perm.(Pattern.sink p)
  && Pattern.is_cyclic_shape p2 = Pattern.is_cyclic_shape p
  && Pattern.to_string (Pattern.of_string (Pattern.to_string p2)) = Pattern.to_string p2

(* Parallel table construction is exactly the sequential one. *)
let prop_parallel_tables rng =
  let net = Gen.random_compact rng in
  List.for_all
    (fun build -> List.for_all (fun jobs -> build ~jobs net = build ~jobs:1 net) [ 2; 3; 5 ])
    [
      (fun ~jobs net -> Tables.cycles2 ~jobs net);
      (fun ~jobs net -> Tables.cycles3 ~jobs net);
      (fun ~jobs net -> Tables.chains2 ~jobs net);
    ]

let test_pb_requires_chains () =
  let tables = Catalog.precompute ~with_chains:false fig2a_net in
  Alcotest.check_raises "P1 needs chains"
    (Invalid_argument "Catalog.pb: pattern needs the 2-hop chain table (precompute ~with_chains:true)")
    (fun () -> ignore (Catalog.pb fig2a_net tables (Catalog.Rigid Catalog.P1)))

let test_self_loop_rejected () =
  (* A self-loop would read as a 2-cycle a→a→a in the tables. *)
  let net = Compact.of_entries [ (0, 0, i_ 1.0 1.0); (0, 1, i_ 2.0 1.0); (1, 0, i_ 3.0 1.0) ] in
  let tables = Catalog.precompute fig2a_net in
  Alcotest.check_raises "precompute" (Invalid_argument "Catalog.precompute: self-loop") (fun () ->
      ignore (Catalog.precompute net));
  Alcotest.check_raises "gb" (Invalid_argument "Catalog.gb: self-loop") (fun () ->
      ignore (Catalog.gb net (Catalog.Rigid Catalog.P2)));
  Alcotest.check_raises "pb" (Invalid_argument "Catalog.pb: self-loop") (fun () ->
      ignore (Catalog.pb net tables (Catalog.Rigid Catalog.P2)))

let test_limit_truncates () =
  let r = Catalog.gb ~limit:1 fig2a_net (Catalog.Rigid Catalog.P2) in
  Alcotest.(check int) "limited" 1 r.Catalog.instances;
  Alcotest.(check bool) "truncated" true r.Catalog.truncated

let test_avg_flow () =
  let r = { Catalog.instances = 4; total_flow = 10.0; truncated = false; timed_out = false } in
  Alcotest.(check (float 1e-9)) "avg" 2.5 (Catalog.avg_flow r);
  let empty = { Catalog.instances = 0; total_flow = 0.0; truncated = false; timed_out = false } in
  Alcotest.(check (float 1e-9)) "empty avg" 0.0 (Catalog.avg_flow empty)

let test_time_budget () =
  (* An (effectively) zero budget forces a timeout on a network large
     enough to exceed one polling interval. *)
  let rng = Tin_util.Prng.create ~seed:5 in
  let net = Gen.random_compact ~n:60 ~edges:700 rng in
  let r = Catalog.gb ~time_budget_ms:0.0 net (Catalog.Rigid Catalog.P3) in
  Alcotest.(check bool) "timed out or finished instantly" true
    (r.Catalog.timed_out || r.Catalog.instances >= 0);
  (* A generous budget changes nothing. *)
  let a = Catalog.gb net (Catalog.Rigid Catalog.P2) in
  let b = Catalog.gb ~time_budget_ms:60_000.0 net (Catalog.Rigid Catalog.P2) in
  Alcotest.(check int) "same instances" a.Catalog.instances b.Catalog.instances;
  Alcotest.(check bool) "not flagged" false b.Catalog.timed_out

let test_deadline_overshoot_bounded () =
  (* Regression: the time budget used to be sampled only at
     ticket-grant, so a shard holding tickets could keep solving
     candidates long past the deadline.  The budget is now re-checked
     unmasked before every complete binding invokes the flow function,
     bounding the overshoot to a single candidate step.  An
     artificially slow [flow_of] makes any larger overshoot visible:
     we count the evaluations that {e start} after the deadline. *)
  let module Obs = Tin_obs.Obs in
  let module Timer = Tin_util.Timer in
  let rng = Tin_util.Prng.create ~seed:11 in
  let net = Gen.random_compact ~n:40 ~edges:400 rng in
  let p2 = Catalog.rigid_pattern Catalog.P2 in
  (* Premise guard: plenty of candidates beyond what fits the budget. *)
  let total = (Catalog.gb_with net p2 (fun _ -> 1.0)).Catalog.instances in
  Alcotest.(check bool) "enough candidates to overshoot" true (total > 20);
  let budget_ms = 10.0 and step_ms = 2.0 in
  let busy_wait_ms ms =
    let target = Int64.add (Timer.now_ns ()) (Int64.of_float (ms *. 1e6)) in
    while Timer.now_ns () < target do
      ignore (Sys.opaque_identity 0)
    done
  in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let started_late = ref 0 in
      let deadline =
        Int64.add (Timer.now_ns ()) (Int64.of_float (budget_ms *. 1e6))
      in
      let slow_flow _mu =
        if Timer.now_ns () > deadline then incr started_late;
        busy_wait_ms step_ms;
        1.0
      in
      let r = Catalog.gb_with ~jobs:1 ~time_budget_ms:budget_ms net p2 slow_flow in
      Alcotest.(check bool) "budget expired" true r.Catalog.timed_out;
      Alcotest.(check bool) "truncated" true r.Catalog.truncated;
      Alcotest.(check bool) "left candidates unevaluated" true (r.Catalog.instances < total);
      (* Overshoot is bounded by one in-flight candidate step (plus one
         for clock skew between our deadline estimate and the
         search's), not by a whole shard of candidates. *)
      Alcotest.(check bool)
        (Printf.sprintf "at most one candidate starts late (saw %d)" !started_late)
        true (!started_late <= 2);
      Alcotest.(check (option int)) "deadline hit counted once" (Some 1)
        (List.assoc_opt "catalog.deadline_hits" (Obs.counters ())))

let test_pattern_dsl () =
  (* The DSL expresses the whole rigid catalog. *)
  let check_equiv text rigid =
    let parsed = Pattern.of_string text in
    let builtin = Catalog.rigid_pattern rigid in
    let a = Catalog.gb_custom fig2a_net parsed in
    let b = Catalog.gb fig2a_net (Catalog.Rigid rigid) in
    Alcotest.(check int) (text ^ " count") b.Catalog.instances a.Catalog.instances;
    Alcotest.(check (float 1e-9)) (text ^ " flow") b.Catalog.total_flow a.Catalog.total_flow;
    Alcotest.(check bool) (text ^ " cyclic shape") (Pattern.is_cyclic_shape builtin)
      (Pattern.is_cyclic_shape parsed)
  in
  check_equiv "a->b, b->c" Catalog.P1;
  check_equiv "a->b, b->a'" Catalog.P2;
  check_equiv "a->b, b->c, c->a'" Catalog.P3;
  check_equiv "a->b, b->c, c->a', b->a'" Catalog.P4;
  check_equiv "a->b, b->a', a->c, c->e, e->a'" Catalog.P5;
  check_equiv "a->b, b->c, c->a', a->c, b->a'" Catalog.P6

let test_pattern_dsl_roundtrip () =
  List.iter
    (fun text ->
      let p = Pattern.of_string text in
      let p2 = Pattern.of_string (Pattern.to_string p) in
      Alcotest.(check string) "stable" (Pattern.to_string p) (Pattern.to_string p2))
    [ "a->b, b->a'"; "a->b, b->c, c->a', a->c, b->a'"; "x->y_2, y_2->z" ]

let test_pattern_dsl_errors () =
  let expect_invalid text =
    match Pattern.of_string text with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "expected failure for %S" text
  in
  expect_invalid "";
  expect_invalid "a";
  expect_invalid "a->";
  expect_invalid "a->a";
  (* cycle over pattern vertices *)
  expect_invalid "a->b, b->a";
  (* disconnected enumeration order *)
  expect_invalid "a->b, c->d";
  expect_invalid "'->b"

let test_gb_custom_diamond () =
  (* A pattern outside the catalog: the diamond a->b->d, a->c->d.  On
     a hand-built net with one instance the flow is the sum of the two
     disjoint branch bottlenecks. *)
  let net =
    Gen.compact_of_list
      [
        (0, 1, [ i_ 1.0 5.0 ]);
        (1, 3, [ i_ 2.0 2.0 ]);
        (0, 2, [ i_ 1.0 5.0 ]);
        (2, 3, [ i_ 2.0 4.0 ]);
      ]
  in
  let p = Pattern.of_string "a->b, b->d, a->c, c->d" in
  Alcotest.(check bool) "acyclic shape" false (Pattern.is_cyclic_shape p);
  Alcotest.(check int) "sink is d" 2 (Pattern.sink p);
  let r = Catalog.gb_custom net p in
  (* Two instances: (b,c) = (1,2) and (2,1). *)
  Alcotest.(check int) "two symmetric instances" 2 r.Catalog.instances;
  Alcotest.(check (float 1e-9)) "flow both times" 12.0 r.Catalog.total_flow

let test_relaxed_rp2_semantics () =
  (* Two parallel 2-cycles at vertex 0: one relaxed instance whose
     flow is the sum of both cycles' flows. *)
  let net =
    Gen.compact_of_list
      [
        (0, 1, [ i_ 1.0 5.0 ]);
        (1, 0, [ i_ 2.0 3.0 ]);
        (0, 2, [ i_ 3.0 4.0 ]);
        (2, 0, [ i_ 4.0 4.0 ]);
        (* a stray edge that is no cycle *)
        (0, 3, [ i_ 5.0 9.0 ]);
      ]
  in
  let r = Catalog.gb net (Catalog.Relaxed Catalog.RP2) in
  (* anchors: 0 (two cycles), 1 (cycle 1->0->1), 2 (cycle 2->0->2) *)
  Alcotest.(check int) "three anchors" 3 r.Catalog.instances;
  let tables = Catalog.precompute net in
  let pb = Catalog.pb net tables (Catalog.Relaxed Catalog.RP2) in
  Alcotest.(check int) "pb agrees" r.Catalog.instances pb.Catalog.instances;
  Alcotest.(check (float 1e-9)) "pb flow agrees" r.Catalog.total_flow pb.Catalog.total_flow

let test_p5_flower_flow_adds () =
  (* One 2-cycle and one 3-cycle sharing anchor 0, disjoint
     intermediates: P5 flow = sum of both cycle flows. *)
  let net =
    Gen.compact_of_list
      [
        (0, 1, [ i_ 1.0 5.0 ]);
        (1, 0, [ i_ 2.0 3.0 ]);
        (0, 2, [ i_ 1.0 6.0 ]);
        (2, 3, [ i_ 2.0 4.0 ]);
        (3, 0, [ i_ 3.0 4.0 ]);
      ]
  in
  let gb = Catalog.gb net (Catalog.Rigid Catalog.P5) in
  Alcotest.(check int) "one flower" 1 gb.Catalog.instances;
  Check.check_flow "flow = 3 + 4" 7.0 gb.Catalog.total_flow;
  let tables = Catalog.precompute net in
  let pb = Catalog.pb net tables (Catalog.Rigid Catalog.P5) in
  Alcotest.(check int) "pb count" 1 pb.Catalog.instances;
  Check.check_flow "pb flow" 7.0 pb.Catalog.total_flow

(* The Figure-3 shape as a cyclic P6 instance: cycle a->y->z->a plus
   chords a->z and y->a (a = 0, y = 1, z = 2).  After splitting a it is
   exactly Figure 3, so the maximum flow is 5 while greedy gives 1. *)
let fig3_p6_net =
  Gen.compact_of_list
    [
      (0, 1, [ i_ 1.0 5.0 ]);
      (* a->y *)
      (1, 2, [ i_ 3.0 5.0 ]);
      (* y->z *)
      (2, 0, [ i_ 5.0 1.0 ]);
      (* z->a *)
      (0, 2, [ i_ 2.0 3.0 ]);
      (* a->z chord *)
      (1, 0, [ i_ 4.0 4.0 ]);
      (* y->a chord *)
    ]

let test_p6_needs_lp () =
  let net = fig3_p6_net in
  let gb = Catalog.gb net (Catalog.Rigid Catalog.P6) in
  Alcotest.(check int) "one instance" 1 gb.Catalog.instances;
  Check.check_flow "maximum (not greedy) flow" 5.0 gb.Catalog.total_flow;
  let tables = Catalog.precompute net in
  let pb = Catalog.pb net tables (Catalog.Rigid Catalog.P6) in
  Check.check_flow "pb agrees" 5.0 pb.Catalog.total_flow

(* Minor words per instance solve on the Figure-3 P6 instance, through
   the edge-slice entry.  The count is exact for a build: 425 words in
   the default (dev) profile, 327 in release.  The bound leaves room for
   compiler and profile drift yet sits far below the ~3 500 words an
   average Prosper P4 instance cost through [edges_to_graph] and the
   pipeline, so a regression in the instance hot path shows up here as
   a count, not as a timing. *)
let test_instance_alloc () =
  let net = fig3_p6_net in
  let a = Option.get (Compact.vertex_of_label net 0) in
  let y = Option.get (Compact.vertex_of_label net 1) in
  let z = Option.get (Compact.vertex_of_label net 2) in
  let eids = Pattern.instance_edges net (Catalog.rigid_pattern Catalog.P6) [| a; y; z; a |] in
  let solve () = Tin_maxflow.max_flow_edges net eids ~source:a ~sink:a in
  Check.check_flow "flow" 5.0 (solve ());
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (solve ()))
  done;
  let per = (Gc.minor_words () -. before) /. float_of_int n in
  if per > 800.0 then Alcotest.failf "%.1f minor words per instance solve, bound 800" per

(* PB = GB on the two patterns that solve each instance, on a small
   Prosper-shaped network, untruncated. *)
let test_p4_p6_pb_eq_gb_prosper () =
  let module Ds = Tin_datasets in
  let net = Ds.Generator.generate ~seed:5 (Ds.Spec.scaled ~factor:0.05 Ds.Spec.prosper) in
  let tables = Catalog.precompute net in
  List.iter
    (fun r ->
      let p = Catalog.Rigid r in
      let name = Catalog.pattern_name p in
      let gb = Catalog.gb net p and pb = Catalog.pb net tables p in
      Alcotest.(check bool) (name ^ " untruncated") false (gb.Catalog.truncated || pb.Catalog.truncated);
      Alcotest.(check bool) (name ^ " has instances") true (gb.Catalog.instances > 0);
      Alcotest.(check int) (name ^ " instances") gb.Catalog.instances pb.Catalog.instances;
      Check.check_flow (name ^ " total flow") gb.Catalog.total_flow pb.Catalog.total_flow)
    [ Catalog.P4; Catalog.P6 ]

let () =
  Alcotest.run "patterns"
    [
      ( "pattern",
        [
          Alcotest.test_case "validation" `Quick test_pattern_validation;
          Alcotest.test_case "catalog shapes" `Quick test_catalog_shapes;
        ] );
      ( "browse",
        [
          Alcotest.test_case "P3 on figure 2" `Quick test_browse_p3_on_fig2a;
          Alcotest.test_case "P2 on figure 2" `Quick test_browse_p2_on_fig2a;
          Alcotest.test_case "distinctness" `Quick test_browse_respects_distinctness;
          Alcotest.test_case "early stop" `Quick test_browse_stop;
        ] );
      ( "tables",
        [
          Alcotest.test_case "cycles2" `Quick test_tables_cycles2;
          Alcotest.test_case "cycles3 flow" `Quick test_tables_cycles3_flow;
          Alcotest.test_case "chains2" `Quick test_tables_chains2;
          Alcotest.test_case "for_start" `Quick test_tables_for_start;
        ] );
      ( "gb-vs-pb",
        [
          Check.seeded_property ~count:60 "GB = PB on all patterns" prop_gb_eq_pb;
          Check.seeded_property ~count:20 "jobs=N = jobs=1 exactly" prop_jobs_deterministic;
          Check.seeded_property ~count:40 "hybrid GB = plain GB" prop_hybrid_gb_eq_plain;
          Check.seeded_property ~count:200 "DSL roundtrip on random patterns" prop_dsl_roundtrip;
          Check.seeded_property ~count:30 "parallel tables = sequential" prop_parallel_tables;
          Alcotest.test_case "PB needs chains" `Quick test_pb_requires_chains;
          Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
          Alcotest.test_case "limit truncates" `Quick test_limit_truncates;
          Alcotest.test_case "avg flow" `Quick test_avg_flow;
          Alcotest.test_case "time budget" `Quick test_time_budget;
          Alcotest.test_case "deadline overshoot bounded" `Quick test_deadline_overshoot_bounded;
          Alcotest.test_case "pattern DSL" `Quick test_pattern_dsl;
          Alcotest.test_case "DSL roundtrip" `Quick test_pattern_dsl_roundtrip;
          Alcotest.test_case "DSL errors" `Quick test_pattern_dsl_errors;
          Alcotest.test_case "custom diamond" `Quick test_gb_custom_diamond;
          Alcotest.test_case "RP2 semantics" `Quick test_relaxed_rp2_semantics;
          Alcotest.test_case "P5 flower adds" `Quick test_p5_flower_flow_adds;
          Alcotest.test_case "P6 needs LP" `Quick test_p6_needs_lp;
          Alcotest.test_case "instance solve allocation" `Quick test_instance_alloc;
          Alcotest.test_case "P4/P6 PB = GB on Prosper" `Quick test_p4_p6_pb_eq_gb_prosper;
        ] );
    ]
