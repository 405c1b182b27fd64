module Obs = Tin_obs.Obs

(* One labeled family per kind of work, shared by both solvers: a
   scrape reads [lp_pivots{solver="dense"}] next to
   [lp_pivots{solver="sparse"}] instead of two unrelated names. *)
let c_phase1 = Obs.Counter.(labeled (make_labeled "lp_phase1_iters" ~labels:[ "solver" ]) [ "dense" ])
let c_phase2 = Obs.Counter.(labeled (make_labeled "lp_phase2_iters" ~labels:[ "solver" ]) [ "dense" ])
let c_pivots = Obs.Counter.(labeled (make_labeled "lp_pivots" ~labels:[ "solver" ]) [ "dense" ])

type sense = Le | Ge | Eq

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

(* The tableau stores the constraint rows only; the reduced-cost row
   [obj] is kept separately so phases can swap cost vectors without
   copying the tableau.  Column layout:
     [0, n)                structural variables
     [n, n + ns)           slack/surplus variables
     [n + ns, n + ns + na) artificial variables
   and [rhs] is a separate column vector. *)
type tableau = {
  n : int;
  ns : int;
  na : int;
  m : int;
  ncols : int; (* n + ns + na *)
  t : float array array; (* m rows, each of length ncols *)
  rhs : float array;
  basis : int array; (* basis.(i) = column basic in row i *)
}

let pivot tab ~obj ~obj_rhs ~row ~col =
  let { t; rhs; basis; ncols; _ } = tab in
  let prow = t.(row) in
  let p = prow.(col) in
  (* Normalize the pivot row. *)
  for j = 0 to ncols - 1 do
    prow.(j) <- prow.(j) /. p
  done;
  rhs.(row) <- rhs.(row) /. p;
  prow.(col) <- 1.0;
  (* Eliminate the pivot column from every other row and from the
     reduced-cost row. *)
  for i = 0 to tab.m - 1 do
    if i <> row then begin
      let f = t.(i).(col) in
      if f <> 0.0 then begin
        let irow = t.(i) in
        for j = 0 to ncols - 1 do
          irow.(j) <- irow.(j) -. (f *. prow.(j))
        done;
        irow.(col) <- 0.0;
        rhs.(i) <- rhs.(i) -. (f *. rhs.(row));
        if rhs.(i) < 0.0 && rhs.(i) > -1e-11 then rhs.(i) <- 0.0
      end
    end
  done;
  let f = obj.(col) in
  if f <> 0.0 then begin
    for j = 0 to ncols - 1 do
      obj.(j) <- obj.(j) -. (f *. prow.(j))
    done;
    obj.(col) <- 0.0;
    obj_rhs := !obj_rhs -. (f *. rhs.(row))
  end;
  basis.(row) <- col

(* One simplex phase: maximize the cost encoded in [obj] (entries are
   [c_j - z_j]; positive means improving).  [allowed j] filters pivot
   columns (used to ban artificials in phase 2).  Returns [`Optimal],
   [`Unbounded] or [`Iteration_limit].  [niters] accumulates the number
   of pivots performed.

   The [max_iters] budget is checked only once an improving column has
   been found, so it bounds the number of pivots {e exactly}: a phase
   that reaches optimality in [p] pivots returns [`Optimal] with
   [max_iters = p] and [`Iteration_limit] with [max_iters = p - 1]. *)
let run_phase tab ~obj ~obj_rhs ~allowed ~eps ~max_iters ~niters =
  let ncols = tab.ncols in
  let bland_after = 200 + (20 * (tab.m + ncols)) in
  let rec iterate k =
    let bland = k > bland_after in
    (* Entering column. *)
    let col = ref (-1) in
    if bland then begin
      (* Bland: first improving column. *)
      let j = ref 0 in
      while !col < 0 && !j < ncols do
        if allowed !j && obj.(!j) > eps then col := !j;
        incr j
      done
    end
    else begin
      (* Dantzig: most improving column. *)
      let best = ref eps in
      for j = 0 to ncols - 1 do
        if allowed j && obj.(j) > !best then begin
          best := obj.(j);
          col := j
        end
      done
    end;
    if !col < 0 then `Optimal
    else if k >= max_iters then `Iteration_limit
    else begin
      (* Ratio test. *)
      let row = ref (-1) and best = ref infinity in
      for i = 0 to tab.m - 1 do
        let a = tab.t.(i).(!col) in
        if a > eps then begin
          let ratio = tab.rhs.(i) /. a in
          if
            ratio < !best -. 1e-12
            || (ratio < !best +. 1e-12 && !row >= 0 && tab.basis.(i) < tab.basis.(!row))
          then begin
            best := ratio;
            row := i
          end
        end
      done;
      if !row < 0 then `Unbounded
      else begin
        pivot tab ~obj ~obj_rhs ~row:!row ~col:!col;
        incr niters;
        iterate (k + 1)
      end
    end
  in
  iterate 0

let solve ?(eps = Tin_util.Fcmp.(default_policy.pivot_eps)) ?(max_iters = 50_000) ?metrics ~c
    ~rows () =
  let n = Array.length c in
  let n1 = ref 0 and n2 = ref 0 in
  let record outcome =
    Obs.Counter.add c_phase1 !n1;
    Obs.Counter.add c_phase2 !n2;
    Obs.Counter.add c_pivots (!n1 + !n2);
    (match metrics with
    | Some (m : Solver_metrics.t) ->
        m.phase1_iterations <- m.phase1_iterations + !n1;
        m.iterations <- m.iterations + !n1 + !n2;
        m.pivots <- m.pivots + !n1 + !n2
    | None -> ());
    outcome
  in
  List.iter
    (fun (coefs, _, _) ->
      if Array.length coefs <> n then invalid_arg "Simplex.solve: row arity mismatch")
    rows;
  (* Normalize right-hand sides to be non-negative. *)
  let rows =
    List.map
      (fun (coefs, sense, b) ->
        if b < 0.0 then
          ( Array.map (fun x -> -.x) coefs,
            (match sense with Le -> Ge | Ge -> Le | Eq -> Eq),
            -.b )
        else (coefs, sense, b))
      rows
  in
  let m = List.length rows in
  let ns = List.length (List.filter (fun (_, s, _) -> s <> Eq) rows) in
  let na = List.length (List.filter (fun (_, s, _) -> s <> Le) rows) in
  let ncols = n + ns + na in
  let t = Array.make_matrix m ncols 0.0 in
  let rhs = Array.make m 0.0 in
  let basis = Array.make m (-1) in
  let next_slack = ref n and next_art = ref (n + ns) in
  List.iteri
    (fun i (coefs, sense, b) ->
      Array.blit coefs 0 t.(i) 0 n;
      rhs.(i) <- b;
      (match sense with
      | Le ->
          t.(i).(!next_slack) <- 1.0;
          basis.(i) <- !next_slack;
          incr next_slack
      | Ge ->
          t.(i).(!next_slack) <- -1.0;
          incr next_slack;
          t.(i).(!next_art) <- 1.0;
          basis.(i) <- !next_art;
          incr next_art
      | Eq ->
          t.(i).(!next_art) <- 1.0;
          basis.(i) <- !next_art;
          incr next_art))
    rows;
  let tab = { n; ns; na; m; ncols; t; rhs; basis } in
  let is_artificial j = j >= n + ns in
  (* Rebuild the reduced-cost row for a given cost vector: start from
     the costs and price out the current basis. *)
  let make_obj cost =
    let obj = Array.make ncols 0.0 in
    Array.blit cost 0 obj 0 (Array.length cost);
    let obj_rhs = ref 0.0 in
    for i = 0 to m - 1 do
      let cb = if basis.(i) < Array.length cost then cost.(basis.(i)) else 0.0 in
      if cb <> 0.0 then begin
        for j = 0 to ncols - 1 do
          obj.(j) <- obj.(j) -. (cb *. t.(i).(j))
        done;
        (* The value cell behaves like the rhs entry of the cost row,
           i.e. it tracks -z under the same pivot updates. *)
        obj_rhs := !obj_rhs -. (cb *. rhs.(i))
      end
    done;
    (obj, obj_rhs)
  in
  let phase2 () =
    let cost = Array.make ncols 0.0 in
    Array.blit c 0 cost 0 n;
    let obj, obj_rhs = make_obj cost in
    match
      run_phase tab ~obj ~obj_rhs
        ~allowed:(fun j -> not (is_artificial j))
        ~eps ~max_iters ~niters:n2
    with
    | `Optimal ->
        let solution = Array.make n 0.0 in
        Array.iteri (fun i b -> if b < n then solution.(b) <- rhs.(i)) basis;
        let objective = ref 0.0 in
        for j = 0 to n - 1 do
          objective := !objective +. (c.(j) *. solution.(j))
        done;
        Optimal { objective = !objective; solution }
    | `Unbounded -> Unbounded
    | `Iteration_limit -> Iteration_limit
  in
  record
  @@
  if na = 0 then phase2 ()
  else begin
    (* Phase 1: maximize -sum(artificials). *)
    let cost = Array.make ncols 0.0 in
    for j = n + ns to ncols - 1 do
      cost.(j) <- -1.0
    done;
    let obj, obj_rhs = make_obj cost in
    match run_phase tab ~obj ~obj_rhs ~allowed:(fun _ -> true) ~eps ~max_iters ~niters:n1 with
    | `Unbounded -> Infeasible (* cannot happen: phase-1 objective is bounded by 0 *)
    | `Iteration_limit -> Iteration_limit
    | `Optimal ->
        ignore !obj_rhs;
        (* Feasibility is judged on the artificial values themselves,
           which is immune to accumulated drift in the value cell. *)
        let art_sum = ref 0.0 and rhs_scale = ref 1.0 in
        for i = 0 to m - 1 do
          if Float.abs rhs.(i) > !rhs_scale then rhs_scale := Float.abs rhs.(i);
          if is_artificial basis.(i) then art_sum := !art_sum +. rhs.(i)
        done;
        if !art_sum > 1e-7 *. !rhs_scale then Infeasible
        else begin
          (* Drive remaining artificials out of the basis where
             possible; rows that resist are redundant and harmless
             because their artificial is basic at value zero and banned
             from re-entering. *)
          for i = 0 to m - 1 do
            if is_artificial basis.(i) then begin
              let col = ref (-1) in
              let j = ref 0 in
              while !col < 0 && !j < n + ns do
                if Float.abs t.(i).(!j) > eps then col := !j;
                incr j
              done;
              if !col >= 0 then begin
                let dummy_obj = Array.make ncols 0.0 and dummy_rhs = ref 0.0 in
                pivot tab ~obj:dummy_obj ~obj_rhs:dummy_rhs ~row:i ~col:!col
              end
            end
          done;
          phase2 ()
        end
  end
