let h_solve_ms_fam = Tin_obs.Obs.Histogram.make_labeled "lp_solve_ms" ~labels:[ "solver" ]
let h_solve_ms solver = Tin_obs.Obs.Histogram.labeled h_solve_ms_fam [ solver ]

type var = int

type status = [ `Optimal | `Infeasible | `Unbounded | `Iteration_limit ]

type solution = { status : status; objective : float; value : var -> float }
type direction = Maximize | Minimize

type var_info = { lb : float; ub : float; obj : float; name : string }

type t = {
  direction : direction;
  mutable vars : var_info array; (* prefix [0, nvars) is live *)
  mutable nvars : int;
  mutable rows : ((float * var) list * Simplex.sense * float) list; (* reversed *)
  mutable nrows : int;
  mutable frozen : bool;
}

let dummy_var = { lb = 0.0; ub = 0.0; obj = 0.0; name = "" }

let create ?(direction = Maximize) () =
  { direction; vars = [||]; nvars = 0; rows = []; nrows = 0; frozen = false }

let check_open t name = if t.frozen then invalid_arg (name ^ ": problem already solved")

let add_var ?(lb = 0.0) ?(ub = infinity) ?(obj = 0.0) ?name t =
  check_open t "Problem.add_var";
  if Float.is_nan lb || Float.is_nan ub || Float.is_nan obj then
    invalid_arg "Problem.add_var: NaN parameter";
  if lb > ub then invalid_arg "Problem.add_var: lb > ub";
  let id = t.nvars in
  let name = match name with Some n -> n | None -> Printf.sprintf "x%d" id in
  if t.nvars = Array.length t.vars then begin
    let grown = Array.make (max 8 (2 * t.nvars)) dummy_var in
    Array.blit t.vars 0 grown 0 t.nvars;
    t.vars <- grown
  end;
  t.vars.(t.nvars) <- { lb; ub; obj; name };
  t.nvars <- t.nvars + 1;
  id

let add_row t terms sense rhs =
  check_open t "Problem.add_constraint";
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= t.nvars then invalid_arg "Problem.add_constraint: unknown variable")
    terms;
  t.rows <- (terms, sense, rhs) :: t.rows;
  t.nrows <- t.nrows + 1

let add_le t terms rhs = add_row t terms Simplex.Le rhs
let add_ge t terms rhs = add_row t terms Simplex.Ge rhs
let add_eq t terms rhs = add_row t terms Simplex.Eq rhs

let n_vars t = t.nvars
let n_constraints t = t.nrows

let var_name t v =
  if v < 0 || v >= t.nvars then invalid_arg "Problem.var_name: unknown variable"
  else t.vars.(v).name

(* Standard-form translation.

   Each user variable [x] with bounds [lb, ub] maps to non-negative
   standard variables:
   - [lb = 0]:                x = y
   - finite [lb]:             x = y + lb          (shift)
   - [lb = -inf]:             x = y+ - y-         (split)
   Finite upper bounds become extra rows over the mapped expression. *)
type mapping =
  | Shift of int * float (* x = std.(i) + offset *)
  | Split of int * int (* x = std.(i) - std.(j) *)

let solve ?(dense = false) ?eps ?max_iters ?metrics t =
  t.frozen <- true;
  let vars = Array.sub t.vars 0 t.nvars in
  let nv = Array.length vars in
  let mapping = Array.make nv (Shift (0, 0.0)) in
  let nstd = ref 0 in
  let fresh () =
    let i = !nstd in
    incr nstd;
    i
  in
  Array.iteri
    (fun i { lb; _ } ->
      if lb = neg_infinity then mapping.(i) <- Split (fresh (), fresh ())
      else mapping.(i) <- Shift (fresh (), lb))
    vars;
  let n = !nstd in
  (* Objective over standard variables; Minimize flips the sign. *)
  let sign = match t.direction with Maximize -> 1.0 | Minimize -> -1.0 in
  let c = Array.make n 0.0 in
  Array.iteri
    (fun i { obj; _ } ->
      match mapping.(i) with
      | Shift (j, _) -> c.(j) <- c.(j) +. (sign *. obj)
      | Split (jp, jm) ->
          c.(jp) <- c.(jp) +. (sign *. obj);
          c.(jm) <- c.(jm) -. (sign *. obj))
    vars;
  (* Shape test without densifying: the sparse solver handles
     [0 <= y <= u] natively when every row is a <= with non-negative
     (shift-adjusted) rhs and no variable was split. *)
  let row_const terms =
    List.fold_left
      (fun acc (coef, v) ->
        match mapping.(v) with Shift (_, off) -> acc +. (coef *. off) | Split _ -> acc)
      0.0 terms
  in
  let box_shaped =
    Array.for_all (fun m -> match m with Shift _ -> true | Split _ -> false) mapping
    && List.for_all
         (fun (terms, sense, rhs) -> sense = Simplex.Le && rhs -. row_const terms >= 0.0)
         t.rows
  in
  let solve_sparse () =
    (* Build CSC storage straight from the term lists — no
       densification.  [t.rows] is reversed, so row [k] of the list is
       constraint [nrows - 1 - k]; duplicate terms may produce duplicate
       (row, coef) entries, which the solver sums. *)
    let m = t.nrows in
    let srhs = Array.make m 0.0 in
    let cols = Array.make n [] in
    List.iteri
      (fun k (terms, _, rhs) ->
        let i = m - 1 - k in
        let const = ref 0.0 in
        List.iter
          (fun (coef, v) ->
            match mapping.(v) with
            | Shift (j, off) ->
                cols.(j) <- (i, coef) :: cols.(j);
                const := !const +. (coef *. off)
            | Split _ -> assert false)
          terms;
        srhs.(i) <- rhs -. !const)
      t.rows;
    let upper = Array.make n infinity in
    Array.iteri
      (fun i { ub; _ } ->
        match mapping.(i) with Shift (j, off) -> upper.(j) <- ub -. off | Split _ -> assert false)
      vars;
    match Sparse.solve ?eps ?max_iters ?metrics ~c ~upper ~rhs:srhs ~cols () with
    | Sparse.Optimal { objective; solution } -> Simplex.Optimal { objective; solution }
    | Sparse.Unbounded -> Simplex.Unbounded
    | Sparse.Iteration_limit -> Simplex.Iteration_limit
  in
  let solve_dense () =
    let expand terms =
      let coefs = Array.make n 0.0 and const = ref 0.0 in
      List.iter
        (fun (coef, v) ->
          match mapping.(v) with
          | Shift (j, off) ->
              coefs.(j) <- coefs.(j) +. coef;
              const := !const +. (coef *. off)
          | Split (jp, jm) ->
              coefs.(jp) <- coefs.(jp) +. coef;
              coefs.(jm) <- coefs.(jm) -. coef)
        terms;
      (coefs, !const)
    in
    let rows = ref [] in
    List.iter
      (fun (terms, sense, rhs) ->
        let coefs, const = expand terms in
        rows := (coefs, sense, rhs -. const) :: !rows)
      t.rows;
    (* Finite upper bounds as explicit rows. *)
    Array.iteri
      (fun i { ub; _ } ->
        if ub < infinity then begin
          let coefs, const = expand [ (1.0, i) ] in
          rows := (coefs, Simplex.Le, ub -. const) :: !rows
        end)
      vars;
    Simplex.solve ?eps ?max_iters ?metrics ~c ~rows:!rows ()
  in
  let outcome =
    let compute, solver_name =
      if box_shaped && not dense then (solve_sparse, "sparse") else (solve_dense, "dense")
    in
    (* Latency histogram per backend; the clock reads are gated so the
       disabled path stays syscall-free. *)
    let compute =
      if Atomic.get Tin_obs.Obs.enabled then fun () ->
        let t0 = Tin_util.Timer.now_ns () in
        let outcome = compute () in
        let dt_ms = Int64.to_float (Int64.sub (Tin_util.Timer.now_ns ()) t0) /. 1e6 in
        Tin_obs.Obs.Histogram.observe (h_solve_ms solver_name) dt_ms;
        outcome
      else compute
    in
    (* Span args are only materialized when tracing is on: the disabled
       path must not allocate. *)
    if Tin_obs.Obs.recording () then
      Tin_obs.Obs.Span.with_ "lp.solve"
        ~args:
          [
            ("solver", solver_name); ("vars", string_of_int n); ("rows", string_of_int t.nrows);
          ]
        compute
    else compute ()
  in
  match outcome with
  | Simplex.Optimal { solution; _ } ->
      let value v =
        if v < 0 || v >= nv then invalid_arg "Problem.solution.value: unknown variable"
        else
          match mapping.(v) with
          | Shift (j, off) -> solution.(j) +. off
          | Split (jp, jm) -> solution.(jp) -. solution.(jm)
      in
      let objective =
        Array.to_list (Array.mapi (fun i { obj; _ } -> obj *. value i) vars)
        |> List.fold_left ( +. ) 0.0
      in
      { status = `Optimal; objective; value }
  | Simplex.Infeasible -> { status = `Infeasible; objective = 0.0; value = (fun _ -> 0.0) }
  | Simplex.Unbounded -> { status = `Unbounded; objective = 0.0; value = (fun _ -> 0.0) }
  | Simplex.Iteration_limit ->
      { status = `Iteration_limit; objective = 0.0; value = (fun _ -> 0.0) }
