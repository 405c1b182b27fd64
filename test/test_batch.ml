(* The multicore batch driver: parallel results must be exactly the
   sequential ones, across job/chunk shapes, with exceptions
   propagated. *)

open Tin_testlib
module Batch = Tin_core.Batch
module Pipeline = Tin_core.Pipeline
module Prng = Tin_util.Prng

let test_map_matches_sequential () =
  let items = Array.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f items in
  List.iter
    (fun (jobs, chunk) ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
        expected
        (Batch.map ~jobs ~chunk f items))
    [ (1, 4); (2, 1); (2, 4); (3, 5); (4, 2); (8, 3); (64, 4) ]

let test_map_empty () =
  Alcotest.(check (array int)) "empty" [||] (Batch.map ~jobs:4 (fun x -> x) [||])

let test_map_default_jobs () =
  let items = Array.init 10 string_of_int in
  Alcotest.(check (array string)) "defaults" items (Batch.map (fun s -> s) items)

exception Boom of int

let test_map_propagates_exception () =
  let items = Array.init 20 (fun i -> i) in
  try
    ignore (Batch.map ~jobs:4 ~chunk:2 (fun i -> if i = 13 then raise (Boom i) else i) items);
    Alcotest.fail "expected Boom"
  with Boom i -> Alcotest.(check int) "failing item" 13 i

let test_map_bad_args () =
  List.iter
    (fun f -> try ignore (f ()); Alcotest.fail "expected Invalid_argument" with
      | Invalid_argument _ -> ())
    [
      (fun () -> Batch.map ~jobs:0 (fun x -> x) [| 1 |]);
      (fun () -> Batch.map ~chunk:0 (fun x -> x) [| 1 |]);
    ]

(* --- map_reduce --- *)

let sum_reduce ~jobs ~chunk ?stop n =
  Batch.map_reduce ~jobs ~chunk ?stop ~n
    ~init:(fun () -> ref 0)
    ~body:(fun acc i -> acc := !acc + (i * i))
    ~merge:(fun a b -> ref (!a + !b))
    ()

let test_map_reduce_matches_sequential () =
  let n = 57 in
  let expected = ref 0 in
  for i = 0 to n - 1 do
    expected := !expected + (i * i)
  done;
  List.iter
    (fun (jobs, chunk) ->
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
        !expected
        !(sum_reduce ~jobs ~chunk n))
    [ (1, 4); (2, 1); (2, 16); (3, 5); (4, 2); (8, 3); (64, 7) ]

let test_map_reduce_order_preserved () =
  (* Collecting indices into lists must yield 0..n-1 in order for every
     job count: chunk accumulators merge in index order. *)
  let collect jobs =
    Batch.map_reduce ~jobs ~chunk:3 ~n:29
      ~init:(fun () -> ref [])
      ~body:(fun acc i -> acc := i :: !acc)
      ~merge:(fun a b -> ref (List.rev_append (List.rev !b) !a))
      ()
  in
  let expected = List.rev (List.init 29 (fun i -> i)) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int)) (Printf.sprintf "jobs=%d" jobs) expected !(collect jobs))
    [ 1; 2; 4; 16 ]

let test_map_reduce_empty () =
  Alcotest.(check int) "n=0 returns init" 0 !(sum_reduce ~jobs:4 ~chunk:4 0)

let test_map_reduce_stop () =
  (* A pre-set stop flag means no chunk is ever claimed. *)
  let stop = Atomic.make true in
  Alcotest.(check int) "nothing folded" 0 !(sum_reduce ~jobs:2 ~chunk:4 ~stop 100);
  (* A stop raised from within ends early but keeps what was folded;
     with jobs=1 the cut is deterministic: indices 0..9 inclusive. *)
  let stop = Atomic.make false in
  let r =
    Batch.map_reduce ~jobs:1 ~chunk:5 ~stop ~n:100
      ~init:(fun () -> ref 0)
      ~body:(fun acc i ->
        if i = 9 then Atomic.set stop true;
        acc := !acc + 1)
      ~merge:(fun a b -> ref (!a + !b))
      ()
  in
  Alcotest.(check int) "stopped after index 9" 10 !r

let test_map_reduce_propagates_exception () =
  try
    ignore
      (Batch.map_reduce ~jobs:4 ~chunk:2 ~n:50
         ~init:(fun () -> ref 0)
         ~body:(fun _ i -> if i = 31 then raise (Boom i))
         ~merge:(fun a _ -> a)
         ());
    Alcotest.fail "expected Boom"
  with Boom i -> Alcotest.(check int) "failing index" 31 i

let test_map_reduce_bad_args () =
  let call ?(jobs = 1) ?(chunk = 1) n () =
    ignore
      (Batch.map_reduce ~jobs ~chunk ~n
         ~init:(fun () -> ())
         ~body:(fun () _ -> ())
         ~merge:(fun () () -> ())
         ())
  in
  List.iter
    (fun f -> try f (); Alcotest.fail "expected Invalid_argument" with
      | Invalid_argument _ -> ())
    [ call ~jobs:0 5; call ~chunk:0 5; call (-1) ]

let test_max_flows_matches_sequential () =
  let rng = Prng.create ~seed:7 in
  let problems =
    List.init 24 (fun _ ->
        let graph, source, sink = Gen.random_dag rng in
        { Batch.graph; source; sink })
  in
  let sequential =
    List.map
      (fun (p : Batch.problem) ->
        Pipeline.compute Pipeline.Pre_sim p.Batch.graph ~source:p.Batch.source ~sink:p.Batch.sink)
      problems
  in
  List.iter
    (fun jobs ->
      let parallel = Batch.max_flows ~jobs ~chunk:2 problems in
      List.iteri
        (fun i (a, b) -> Check.check_flow (Printf.sprintf "jobs=%d problem %d" jobs i) a b)
        (List.combine sequential parallel))
    [ 1; 2; 4 ]

let test_max_flows_method () =
  let rng = Prng.create ~seed:11 in
  let problems =
    List.init 12 (fun _ ->
        let graph, source, sink = Gen.random_dag rng in
        { Batch.graph; source; sink })
  in
  let via_lp = Batch.max_flows ~jobs:3 ~method_:Pipeline.Lp problems in
  let via_presim = Batch.max_flows ~jobs:3 problems in
  List.iteri
    (fun i (a, b) -> Check.check_flow (Printf.sprintf "problem %d" i) a b)
    (List.combine via_presim via_lp)

let () =
  Alcotest.run "batch"
    [
      ( "map",
        [
          Alcotest.test_case "matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "empty input" `Quick test_map_empty;
          Alcotest.test_case "default jobs" `Quick test_map_default_jobs;
          Alcotest.test_case "exception propagation" `Quick test_map_propagates_exception;
          Alcotest.test_case "argument validation" `Quick test_map_bad_args;
        ] );
      ( "map_reduce",
        [
          Alcotest.test_case "matches sequential fold" `Quick test_map_reduce_matches_sequential;
          Alcotest.test_case "index-order merge" `Quick test_map_reduce_order_preserved;
          Alcotest.test_case "empty range" `Quick test_map_reduce_empty;
          Alcotest.test_case "cooperative stop" `Quick test_map_reduce_stop;
          Alcotest.test_case "exception propagation" `Quick test_map_reduce_propagates_exception;
          Alcotest.test_case "argument validation" `Quick test_map_reduce_bad_args;
        ] );
      ( "max_flows",
        [
          Alcotest.test_case "matches sequential pipeline" `Quick test_max_flows_matches_sequential;
          Alcotest.test_case "method knob" `Quick test_max_flows_method;
        ] );
    ]
