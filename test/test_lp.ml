(* LP substrate: the two-phase simplex and the problem builder. *)

module Simplex = Tin_lp.Simplex
module Problem = Tin_lp.Problem

let check_opt ~expected_obj ?(expected = []) outcome =
  match outcome with
  | Simplex.Optimal { objective; solution } ->
      Alcotest.(check (float 1e-6)) "objective" expected_obj objective;
      List.iter
        (fun (i, v) -> Alcotest.(check (float 1e-6)) (Printf.sprintf "x%d" i) v solution.(i))
        expected
  | Simplex.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected: unbounded"
  | Simplex.Iteration_limit -> Alcotest.fail "unexpected: iteration limit"

(* Classic textbook instance: max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18. *)
let test_simplex_textbook () =
  check_opt ~expected_obj:36.0
    ~expected:[ (0, 2.0); (1, 6.0) ]
    (Simplex.solve ~c:[| 3.0; 5.0 |]
       ~rows:
         [
           ([| 1.0; 0.0 |], Simplex.Le, 4.0);
           ([| 0.0; 2.0 |], Simplex.Le, 12.0);
           ([| 3.0; 2.0 |], Simplex.Le, 18.0);
         ]
       ())

let test_simplex_equality () =
  (* max x + y s.t. x + y = 5, x <= 3  -> 5, with x in [0,3]. *)
  check_opt ~expected_obj:5.0
    (Simplex.solve ~c:[| 1.0; 1.0 |]
       ~rows:[ ([| 1.0; 1.0 |], Simplex.Eq, 5.0); ([| 1.0; 0.0 |], Simplex.Le, 3.0) ]
       ())

let test_simplex_ge () =
  (* max -x s.t. x >= 2  -> x = 2, obj -2 (phase 1 needed). *)
  check_opt ~expected_obj:(-2.0)
    ~expected:[ (0, 2.0) ]
    (Simplex.solve ~c:[| -1.0 |] ~rows:[ ([| 1.0 |], Simplex.Ge, 2.0) ] ())

let test_simplex_infeasible () =
  match
    Simplex.solve ~c:[| 1.0 |]
      ~rows:[ ([| 1.0 |], Simplex.Le, 1.0); ([| 1.0 |], Simplex.Ge, 2.0) ]
      ()
  with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  match Simplex.solve ~c:[| 1.0 |] ~rows:[ ([| -1.0 |], Simplex.Le, 1.0) ] () with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_negative_rhs () =
  (* -x <= -2  is  x >= 2; max -x -> -2. *)
  check_opt ~expected_obj:(-2.0)
    (Simplex.solve ~c:[| -1.0 |] ~rows:[ ([| -1.0 |], Simplex.Le, -2.0) ] ())

let test_simplex_degenerate () =
  (* Degenerate vertex at origin with redundant constraints; Bland
     protects against cycling.  Optimum: x = y = 1/2. *)
  check_opt ~expected_obj:0.5
    (Simplex.solve
       ~c:[| 1.0; 0.0 |]
       ~rows:
         [
           ([| 1.0; 1.0 |], Simplex.Le, 1.0);
           ([| 1.0; -1.0 |], Simplex.Le, 0.0);
           ([| 1.0; 0.0 |], Simplex.Le, 1.0);
         ]
       ())

let test_simplex_zero_objective () =
  check_opt ~expected_obj:0.0
    (Simplex.solve ~c:[| 0.0 |] ~rows:[ ([| 1.0 |], Simplex.Le, 3.0) ] ())

let test_simplex_arity_mismatch () =
  Alcotest.check_raises "row arity" (Invalid_argument "Simplex.solve: row arity mismatch")
    (fun () ->
      ignore (Simplex.solve ~c:[| 1.0 |] ~rows:[ ([| 1.0; 2.0 |], Simplex.Le, 1.0) ] ()))

(* Brute-force LP oracle over constraint-boundary intersections in 2D:
   enumerate all vertices of the feasible polygon (pairwise
   intersections of tight constraints, plus axes), keep feasible ones,
   take the best objective.  Compares against the simplex on random
   2-variable problems. *)
let brute_force_2d ~c ~rows =
  let lines =
    (* each row as a*x + b*y <= r ; plus x >= 0 and y >= 0 *)
    rows @ [ ([| -1.0; 0.0 |], Simplex.Le, 0.0); ([| 0.0; -1.0 |], Simplex.Le, 0.0) ]
  in
  let feasible (x, y) =
    List.for_all (fun (a, _, r) -> (a.(0) *. x) +. (a.(1) *. y) <= r +. 1e-7) lines
  in
  let candidates = ref [] in
  let n = List.length lines in
  let arr = Array.of_list lines in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a1, _, r1 = arr.(i) and a2, _, r2 = arr.(j) in
      let det = (a1.(0) *. a2.(1)) -. (a1.(1) *. a2.(0)) in
      if Float.abs det > 1e-9 then begin
        let x = ((r1 *. a2.(1)) -. (r2 *. a1.(1))) /. det in
        let y = ((a1.(0) *. r2) -. (a2.(0) *. r1)) /. det in
        if feasible (x, y) then candidates := (x, y) :: !candidates
      end
    done
  done;
  match !candidates with
  | [] -> None
  | cs ->
      Some
        (List.fold_left
           (fun best (x, y) -> Float.max best ((c.(0) *. x) +. (c.(1) *. y)))
           neg_infinity cs)

let test_simplex_vs_brute_force () =
  let rng = Tin_util.Prng.create ~seed:1234 in
  for _ = 1 to 200 do
    let c = [| float_of_int (Tin_util.Prng.int rng 10); float_of_int (Tin_util.Prng.int rng 10) |] in
    let n_rows = 1 + Tin_util.Prng.int rng 4 in
    let rows =
      List.init n_rows (fun _ ->
          ( [|
              float_of_int (1 + Tin_util.Prng.int rng 5);
              float_of_int (1 + Tin_util.Prng.int rng 5);
            |],
            Simplex.Le,
            float_of_int (1 + Tin_util.Prng.int rng 20) ))
    in
    (* All-positive coefficients with positive rhs: bounded, feasible. *)
    match (Simplex.solve ~c ~rows (), brute_force_2d ~c ~rows) with
    | Simplex.Optimal { objective; _ }, Some best ->
        Alcotest.(check (float 1e-5)) "agrees with brute force" best objective
    | outcome, _ ->
        Alcotest.failf "unexpected outcome %s"
          (match outcome with
          | Simplex.Optimal _ -> "optimal/no-bruteforce"
          | Simplex.Infeasible -> "infeasible"
          | Simplex.Unbounded -> "unbounded"
          | Simplex.Iteration_limit -> "iteration limit")
  done

let test_problem_basic () =
  let p = Problem.create () in
  let x = Problem.add_var ~ub:4.0 ~obj:3.0 ~name:"x" p in
  let y = Problem.add_var ~obj:5.0 p in
  Problem.add_le p [ (2.0, y) ] 12.0;
  Problem.add_le p [ (3.0, x); (2.0, y) ] 18.0;
  let sol = Problem.solve p in
  Alcotest.(check bool) "optimal" true (sol.Problem.status = `Optimal);
  Alcotest.(check (float 1e-6)) "objective" 36.0 sol.Problem.objective;
  Alcotest.(check (float 1e-6)) "x" 2.0 (sol.Problem.value x);
  Alcotest.(check (float 1e-6)) "y" 6.0 (sol.Problem.value y);
  Alcotest.(check string) "name" "x" (Problem.var_name p x)

let test_problem_minimize () =
  let p = Problem.create ~direction:Problem.Minimize () in
  let x = Problem.add_var ~obj:1.0 p in
  Problem.add_ge p [ (1.0, x) ] 3.0;
  let sol = Problem.solve p in
  Alcotest.(check (float 1e-6)) "min x subject to x>=3" 3.0 sol.Problem.objective

let test_problem_shifted_lower_bound () =
  let p = Problem.create ~direction:Problem.Minimize () in
  let x = Problem.add_var ~lb:2.0 ~ub:10.0 ~obj:1.0 p in
  let sol = Problem.solve p in
  Alcotest.(check (float 1e-6)) "sits at lb" 2.0 sol.Problem.objective;
  Alcotest.(check (float 1e-6)) "value" 2.0 (sol.Problem.value x)

let test_problem_free_variable () =
  (* min x st x >= -5 with free x: optimum -5 (needs the split). *)
  let p = Problem.create ~direction:Problem.Minimize () in
  let x = Problem.add_var ~lb:neg_infinity ~obj:1.0 p in
  Problem.add_ge p [ (1.0, x) ] (-5.0);
  let sol = Problem.solve p in
  Alcotest.(check (float 1e-6)) "objective" (-5.0) sol.Problem.objective;
  Alcotest.(check (float 1e-6)) "x" (-5.0) (sol.Problem.value x)

let test_problem_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var ~ub:1.0 p in
  Problem.add_ge p [ (1.0, x) ] 2.0;
  let sol = Problem.solve p in
  Alcotest.(check bool) "infeasible" true (sol.Problem.status = `Infeasible)

let test_problem_unbounded () =
  let p = Problem.create () in
  let _x = Problem.add_var ~obj:1.0 p in
  let sol = Problem.solve p in
  Alcotest.(check bool) "unbounded" true (sol.Problem.status = `Unbounded)

let test_problem_frozen () =
  let p = Problem.create () in
  let _x = Problem.add_var p in
  let _ = Problem.solve p in
  Alcotest.check_raises "frozen" (Invalid_argument "Problem.add_var: problem already solved")
    (fun () -> ignore (Problem.add_var p))

let test_problem_bad_bounds () =
  let p = Problem.create () in
  Alcotest.check_raises "lb>ub" (Invalid_argument "Problem.add_var: lb > ub") (fun () ->
      ignore (Problem.add_var ~lb:2.0 ~ub:1.0 p))

let test_problem_dense_eq_sparse_random () =
  (* On random bounded all-Le problems the two solvers must agree.
     The random structure is recorded first, then two identical
     problems are built from it. *)
  let rng = Tin_util.Prng.create ~seed:4242 in
  for _ = 1 to 200 do
    let n = 1 + Tin_util.Prng.int rng 5 in
    let vars_spec =
      List.init n (fun _ ->
          ( float_of_int (1 + Tin_util.Prng.int rng 9),
            float_of_int (Tin_util.Prng.int rng 10) ))
    in
    let n_rows = Tin_util.Prng.int rng 4 in
    let rows_spec =
      List.init n_rows (fun _ ->
          ( List.init n (fun _ -> float_of_int (Tin_util.Prng.int rng 4)),
            float_of_int (5 + Tin_util.Prng.int rng 30) ))
    in
    let build () =
      let p = Problem.create () in
      let vars = List.map (fun (ub, obj) -> Problem.add_var ~ub ~obj p) vars_spec in
      List.iter
        (fun (coefs, rhs) -> Problem.add_le p (List.combine coefs vars) rhs)
        rows_spec;
      (p, vars)
    in
    let p1, vars1 = build () in
    let p2, vars2 = build () in
    let s1 = Problem.solve ~dense:true p1 in
    let s2 = Problem.solve p2 in
    Alcotest.(check bool) "both optimal" true
      (s1.Problem.status = `Optimal && s2.Problem.status = `Optimal);
    Alcotest.(check (float 1e-5)) "objectives agree" s1.Problem.objective s2.Problem.objective;
    (* Both solutions must be feasible for the recorded rows. *)
    List.iter
      (fun (coefs, rhs) ->
        let lhs vars sol =
          List.fold_left2 (fun acc c v -> acc +. (c *. sol.Problem.value v)) 0.0 coefs vars
        in
        Alcotest.(check bool) "dense feasible" true (lhs vars1 s1 <= rhs +. 1e-6);
        Alcotest.(check bool) "sparse feasible" true (lhs vars2 s2 <= rhs +. 1e-6))
      rows_spec
  done

(* --- exact iteration budgets --------------------------------------- *)

module Sparse = Tin_lp.Sparse
module Solver_metrics = Tin_lp.Solver_metrics

(* The budget contract is identical for both solvers: a run that
   needs exactly [p] work passes (pivots / bound flips / defensive
   refactorize-retries, as counted by [Solver_metrics.iterations])
   returns its result with [max_iters = p] and [Iteration_limit] with
   [max_iters = p - 1] — never one extra iteration. *)
let check_budget_exact name solve_with =
  let base, iters = solve_with None in
  (match base with
  | `Opt _ -> ()
  | `Limit -> Alcotest.failf "%s: unlimited run hit the iteration limit" name
  | `Other -> Alcotest.failf "%s: expected an optimal base run" name);
  (match (solve_with (Some iters), base) with
  | (`Opt a, _), `Opt b -> Alcotest.(check (float 1e-9)) (name ^ ": budget = work suffices") b a
  | _ -> Alcotest.failf "%s: max_iters = %d (the exact work) must solve" name iters);
  if iters > 0 then
    match solve_with (Some (iters - 1)) with
    | `Limit, _ -> ()
    | _ -> Alcotest.failf "%s: max_iters = %d must hit Iteration_limit" name (iters - 1)

let test_iteration_budget_exact () =
  let rng = Tin_util.Prng.create ~seed:9090 in
  for _ = 1 to 100 do
    let n = 1 + Tin_util.Prng.int rng 5 in
    let c = Array.init n (fun _ -> float_of_int (Tin_util.Prng.int rng 10)) in
    let upper = Array.init n (fun _ -> float_of_int (1 + Tin_util.Prng.int rng 9)) in
    let n_rows = 1 + Tin_util.Prng.int rng 4 in
    let rows =
      List.init n_rows (fun _ ->
          ( Array.init n (fun _ -> float_of_int (Tin_util.Prng.int rng 4)),
            float_of_int (5 + Tin_util.Prng.int rng 30) ))
    in
    let rhs = Array.of_list (List.map snd rows) in
    let cols =
      Array.init n (fun j ->
          List.concat
            (List.mapi (fun i (a, _) -> if a.(j) <> 0.0 then [ (i, a.(j)) ] else []) rows))
    in
    let dense max_iters =
      (* The dense simplex has no native bounds: encode them as rows.
         All rows are Le, so phase 1 is empty and the per-phase budget
         is exactly the phase-2 budget. *)
      let m = Solver_metrics.create () in
      let bound_rows =
        List.init n (fun j ->
            (Array.init n (fun k -> if k = j then 1.0 else 0.0), Simplex.Le, upper.(j)))
      in
      let rows = List.map (fun (a, b) -> (a, Simplex.Le, b)) rows @ bound_rows in
      let o =
        match max_iters with
        | None -> Simplex.solve ~metrics:m ~c ~rows ()
        | Some k -> Simplex.solve ~max_iters:k ~metrics:m ~c ~rows ()
      in
      ( (match o with
        | Simplex.Optimal { objective; _ } -> `Opt objective
        | Simplex.Iteration_limit -> `Limit
        | _ -> `Other),
        m.Solver_metrics.iterations )
    in
    let sparse max_iters =
      let m = Solver_metrics.create () in
      let o =
        match max_iters with
        | None -> Sparse.solve ~metrics:m ~c ~upper ~rhs ~cols ()
        | Some k -> Sparse.solve ~max_iters:k ~metrics:m ~c ~upper ~rhs ~cols ()
      in
      ( (match o with
        | Sparse.Optimal { objective; _ } -> `Opt objective
        | Sparse.Iteration_limit -> `Limit
        | _ -> `Other),
        m.Solver_metrics.iterations )
    in
    check_budget_exact "dense" dense;
    check_budget_exact "sparse" sparse
  done

let test_metrics_accumulate () =
  let m = Solver_metrics.create () in
  let solve () =
    ignore
      (Sparse.solve ~metrics:m ~c:[| 3.0; 5.0 |] ~upper:[| 4.0; infinity |]
         ~rhs:[| 12.0; 18.0 |]
         ~cols:[| [ (1, 3.0) ]; [ (0, 2.0); (1, 2.0) ] |]
         ())
  in
  solve ();
  let once = m.Solver_metrics.iterations in
  Alcotest.(check bool) "a real solve does work" true (once > 0);
  Alcotest.(check int) "iterations = pivots + flips" once
    (m.Solver_metrics.pivots + m.Solver_metrics.bound_flips);
  solve ();
  Alcotest.(check int) "metrics accumulate across solves" (2 * once) m.Solver_metrics.iterations

let test_problem_repeated_terms () =
  (* x + x <= 4 means x <= 2. *)
  let p = Problem.create () in
  let x = Problem.add_var ~obj:1.0 p in
  Problem.add_le p [ (1.0, x); (1.0, x) ] 4.0;
  let sol = Problem.solve p in
  Alcotest.(check (float 1e-6)) "objective" 2.0 sol.Problem.objective

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "textbook" `Quick test_simplex_textbook;
          Alcotest.test_case "equality row" `Quick test_simplex_equality;
          Alcotest.test_case "ge row (phase 1)" `Quick test_simplex_ge;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "zero objective" `Quick test_simplex_zero_objective;
          Alcotest.test_case "arity mismatch" `Quick test_simplex_arity_mismatch;
          Alcotest.test_case "random vs brute force" `Quick test_simplex_vs_brute_force;
        ] );
      ( "problem",
        [
          Alcotest.test_case "basic" `Quick test_problem_basic;
          Alcotest.test_case "minimize" `Quick test_problem_minimize;
          Alcotest.test_case "lower bound shift" `Quick test_problem_shifted_lower_bound;
          Alcotest.test_case "free variable" `Quick test_problem_free_variable;
          Alcotest.test_case "infeasible" `Quick test_problem_infeasible;
          Alcotest.test_case "unbounded" `Quick test_problem_unbounded;
          Alcotest.test_case "frozen after solve" `Quick test_problem_frozen;
          Alcotest.test_case "bad bounds" `Quick test_problem_bad_bounds;
          Alcotest.test_case "repeated terms" `Quick test_problem_repeated_terms;
          Alcotest.test_case "random dense = sparse" `Quick test_problem_dense_eq_sparse_random;
        ] );
      ( "budget",
        [
          Alcotest.test_case "max_iters exact on all solvers" `Quick test_iteration_budget_exact;
          Alcotest.test_case "metrics accumulate" `Quick test_metrics_accumulate;
        ] );
    ]
