(* The sparse bounded-variable revised simplex: raw-solver unit tests
   (including the eta-file/refactorization machinery via a tiny
   [refactor_every]), random agreement with the dense two-phase simplex,
   and the Problem-level choice between the two by problem shape. *)

module Sparse = Tin_lp.Sparse
module Simplex = Tin_lp.Simplex
module Problem = Tin_lp.Problem
module Solver_metrics = Tin_lp.Solver_metrics
module Lp_flow = Tin_core.Lp_flow
module Prng = Tin_util.Prng
module Fcmp = Tin_util.Fcmp

let check_opt ~expected_obj ?(expected = []) outcome =
  match outcome with
  | Sparse.Optimal { objective; solution } ->
      Alcotest.(check (float 1e-6)) "objective" expected_obj objective;
      List.iter
        (fun (i, v) -> Alcotest.(check (float 1e-6)) (Printf.sprintf "x%d" i) v solution.(i))
        expected
  | Sparse.Unbounded -> Alcotest.fail "unexpected: unbounded"
  | Sparse.Iteration_limit -> Alcotest.fail "unexpected: iteration limit"

let inf = infinity

(* Classic textbook instance: max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18. *)
let test_textbook () =
  check_opt ~expected_obj:36.0
    ~expected:[ (0, 2.0); (1, 6.0) ]
    (Sparse.solve ~c:[| 3.0; 5.0 |] ~upper:[| inf; inf |]
       ~rhs:[| 4.0; 12.0; 18.0 |]
       ~cols:[| [ (0, 1.0); (2, 3.0) ]; [ (1, 2.0); (2, 2.0) ] |]
       ())

(* No constraint rows at all: the optimum is reached purely by bound
   flips (nonbasic variables moving to their upper bounds). *)
let test_pure_bound_flips () =
  check_opt ~expected_obj:11.0
    ~expected:[ (0, 3.0); (1, 4.0) ]
    (Sparse.solve ~c:[| 1.0; 2.0 |] ~upper:[| 3.0; 4.0 |] ~rhs:[||] ~cols:[| []; [] |] ())

(* The row constraint is slack at the optimum; the variable's own upper
   bound is what binds. *)
let test_upper_bound_tight () =
  check_opt ~expected_obj:2.0
    ~expected:[ (0, 2.0) ]
    (Sparse.solve ~c:[| 1.0 |] ~upper:[| 2.0 |] ~rhs:[| 10.0 |] ~cols:[| [ (0, 1.0) ] |] ())

(* Degenerate vertex at the origin with a redundant third row; Bland's
   fallback protects against cycling.  Optimum x = y = 1/2. *)
let test_degenerate () =
  check_opt ~expected_obj:0.5
    (Sparse.solve ~c:[| 1.0; 0.0 |] ~upper:[| inf; inf |]
       ~rhs:[| 1.0; 0.0; 1.0 |]
       ~cols:[| [ (0, 1.0); (1, 1.0); (2, 1.0) ]; [ (0, 1.0); (1, -1.0) ] |]
       ())

(* Identical rows repeated three times: the basis stays nonsingular
   because slacks of the redundant copies remain basic. *)
let test_redundant_rows () =
  check_opt ~expected_obj:5.0
    (Sparse.solve ~c:[| 1.0; 1.0 |] ~upper:[| inf; inf |]
       ~rhs:[| 5.0; 5.0; 5.0 |]
       ~cols:
         [| [ (0, 1.0); (1, 1.0); (2, 1.0) ]; [ (0, 1.0); (1, 1.0); (2, 1.0) ] |]
       ())

(* Duplicate (row, coef) entries in a column must be summed: the column
   below is effectively 2x <= 6. *)
let test_duplicate_entries_summed () =
  check_opt ~expected_obj:3.0
    ~expected:[ (0, 3.0) ]
    (Sparse.solve ~c:[| 1.0 |] ~upper:[| inf |] ~rhs:[| 6.0 |]
       ~cols:[| [ (0, 1.0); (0, 1.0) ] |]
       ())

let test_unbounded () =
  match
    Sparse.solve ~c:[| 1.0 |] ~upper:[| inf |] ~rhs:[| 1.0 |] ~cols:[| [ (0, -1.0) ] |] ()
  with
  | Sparse.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_negative_rhs_rejected () =
  Alcotest.check_raises "negative rhs"
    (Invalid_argument "Sparse.solve: negative rhs (origin must be feasible)") (fun () ->
      ignore (Sparse.solve ~c:[| 1.0 |] ~upper:[| inf |] ~rhs:[| -1.0 |] ~cols:[| [] |] ()))

let test_bad_row_index_rejected () =
  try
    ignore (Sparse.solve ~c:[| 1.0 |] ~upper:[| inf |] ~rhs:[| 1.0 |] ~cols:[| [ (3, 1.0) ] |] ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Random agreement with the dense two-phase simplex, which takes the
   upper bounds as explicit rows.  [refactor_every] is deliberately
   tiny so reinversion happens every couple of pivots — the eta file
   and the refactorization must agree. *)
(* ------------------------------------------------------------------ *)

let random_instance rng =
  let n = 1 + Prng.int rng 6 and m = Prng.int rng 6 in
  let c = Array.init n (fun _ -> float_of_int (Prng.int rng 11 - 5)) in
  let upper =
    Array.init n (fun _ -> if Prng.int rng 4 = 0 then inf else float_of_int (Prng.int rng 10))
  in
  let dense_rows =
    List.init m (fun _ ->
        ( Array.init n (fun _ -> float_of_int (Prng.int rng 7 - 3)),
          float_of_int (Prng.int rng 12) ))
  in
  let rhs = Array.of_list (List.map snd dense_rows) in
  let cols =
    Array.init n (fun j ->
        List.mapi (fun i (coefs, _) -> (i, coefs.(j))) dense_rows
        |> List.filter (fun (_, v) -> v <> 0.0))
  in
  (c, upper, dense_rows, rhs, cols)

let test_random_vs_dense () =
  let rng = Prng.create ~seed:2024 in
  for k = 1 to 300 do
    let c, upper, dense_rows, rhs, cols = random_instance rng in
    let n = Array.length c in
    let bound_rows =
      List.filter_map
        (fun j ->
          if upper.(j) < inf then
            Some (Array.init n (fun i -> if i = j then 1.0 else 0.0), Simplex.Le, upper.(j))
          else None)
        (List.init n Fun.id)
    in
    let rows = List.map (fun (a, b) -> (a, Simplex.Le, b)) dense_rows @ bound_rows in
    let reference = Simplex.solve ~c ~rows () in
    let got = Sparse.solve ~refactor_every:2 ~c ~upper ~rhs ~cols () in
    match (reference, got) with
    | Simplex.Optimal { objective = a; _ }, Sparse.Optimal { objective = b; _ } ->
        if not (Fcmp.approx_eq ~eps:1e-6 a b) then
          Alcotest.failf "instance %d: dense=%.9g sparse=%.9g" k a b
    | Simplex.Unbounded, Sparse.Unbounded -> ()
    | _ -> Alcotest.failf "instance %d: outcome mismatch" k
  done

(* ------------------------------------------------------------------ *)
(* Problem-level choice of solver                                      *)
(* ------------------------------------------------------------------ *)

let test_problem_sparse_route () =
  let p = Problem.create () in
  let x = Problem.add_var ~ub:4.0 ~obj:3.0 p in
  let y = Problem.add_var ~obj:5.0 p in
  Problem.add_le p [ (2.0, y) ] 12.0;
  Problem.add_le p [ (3.0, x); (2.0, y) ] 18.0;
  let s = Problem.solve p in
  Alcotest.(check (float 1e-6)) "objective" 36.0 s.Problem.objective;
  Alcotest.(check (float 1e-6)) "x" 2.0 (s.Problem.value x);
  Alcotest.(check (float 1e-6)) "y" 6.0 (s.Problem.value y);
  (* max x s.t. x <= 10, 0 <= x <= 2: the native bound is reached by
     one bound flip; the dense simplex, with the bound as a row, pivots
     instead. *)
  let flips ?dense () =
    let p = Problem.create () in
    let x = Problem.add_var ~ub:2.0 ~obj:1.0 p in
    Problem.add_le p [ (1.0, x) ] 10.0;
    let metrics = Solver_metrics.create () in
    let s = Problem.solve ?dense ~metrics p in
    Alcotest.(check (float 1e-9)) "x at its bound" 2.0 s.Problem.objective;
    metrics.Solver_metrics.bound_flips
  in
  Alcotest.(check int) "box LP goes to the sparse solver" 1 (flips ());
  Alcotest.(check int) "dense reference" 0 (flips ~dense:true ())

let test_problem_non_box_goes_dense () =
  let p = Problem.create () in
  let x = Problem.add_var ~ub:5.0 ~obj:(-1.0) p in
  Problem.add_ge p [ (1.0, x) ] 2.0;
  let metrics = Solver_metrics.create () in
  let s = Problem.solve ~metrics p in
  Alcotest.(check (float 1e-9)) "objective" (-2.0) s.Problem.objective;
  Alcotest.(check bool) "two-phase simplex ran phase 1" true
    (metrics.Solver_metrics.phase1_iterations > 0)

(* A chain flow LP with enough rows and columns to exercise the
   sparse solver's refactorization on a real flow LP (rows × cols >=
   4096, density well under 0.25): 10 vertices, 30 distinct-time
   interactions per edge.  Cross-check against the dense simplex. *)
let test_large_flow_lp () =
  let g = ref Graph.empty in
  for v = 0 to 8 do
    let is =
      List.init 30 (fun k ->
          Interaction.make
            ~time:(float_of_int ((30 * v) + k))
            ~qty:(float_of_int (1 + ((v + k) mod 7))))
    in
    g := Graph.add_edge !g ~src:v ~dst:(v + 1) is
  done;
  let g = !g and source = 0 and sink = 9 in
  let lp = Lp_flow.build g ~source ~sink in
  let rows = Tin_lp.Problem.n_constraints lp.Lp_flow.problem in
  let cells = rows * lp.Lp_flow.n_vars in
  Alcotest.(check bool)
    (Printf.sprintf "instance large enough (%d cells)" cells)
    true (cells >= 4096);
  let run dense =
    match Lp_flow.solve ~dense g ~source ~sink with
    | Ok v -> v
    | Error _ -> Alcotest.fail "solver failure"
  in
  Alcotest.(check (float 1e-6)) "sparse = dense" (run true) (run false)

let () =
  Alcotest.run "sparse"
    [
      ( "raw",
        [
          Alcotest.test_case "textbook" `Quick test_textbook;
          Alcotest.test_case "pure bound flips" `Quick test_pure_bound_flips;
          Alcotest.test_case "upper bound tight" `Quick test_upper_bound_tight;
          Alcotest.test_case "degenerate pivots" `Quick test_degenerate;
          Alcotest.test_case "redundant rows" `Quick test_redundant_rows;
          Alcotest.test_case "duplicate entries summed" `Quick test_duplicate_entries_summed;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "negative rhs rejected" `Quick test_negative_rhs_rejected;
          Alcotest.test_case "bad row index rejected" `Quick test_bad_row_index_rejected;
        ] );
      ( "agreement",
        [ Alcotest.test_case "random instances vs dense simplex" `Quick test_random_vs_dense ] );
      ( "problem",
        [
          Alcotest.test_case "`Sparse route" `Quick test_problem_sparse_route;
          Alcotest.test_case "non-box LP goes dense" `Quick test_problem_non_box_goes_dense;
          Alcotest.test_case "large flow LP sparse = dense" `Quick test_large_flow_lp;
        ] );
    ]
