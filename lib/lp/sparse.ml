module Obs = Tin_obs.Obs

let c_iters = Obs.Counter.(labeled (make_labeled "lp_iters" ~labels:[ "solver" ]) [ "sparse" ])
let c_pivots = Obs.Counter.(labeled (make_labeled "lp_pivots" ~labels:[ "solver" ]) [ "sparse" ])
let c_flips = Obs.Counter.(labeled (make_labeled "lp_bound_flips" ~labels:[ "solver" ]) [ "sparse" ])
let c_refact = Obs.Counter.(labeled (make_labeled "lp_refactorizations" ~labels:[ "solver" ]) [ "sparse" ])
let c_eta_resets = Obs.Counter.(labeled (make_labeled "lp_eta_resets" ~labels:[ "solver" ]) [ "sparse" ])

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Unbounded
  | Iteration_limit

(* Product-form-of-the-inverse bounded-variable revised simplex.

   Columns 0..n-1 are the structural variables (bounds [0, upper.(j)]),
   columns n..n+m-1 the slacks (row i's slack is column n+i, bounds
   [0, inf)).  The constraint matrix is stored column-wise and never
   densified; slack columns are implicit unit vectors.

   The basis inverse is represented as an eta file: B^-1 = E_k ... E_1
   where each E is the inverse of an elementary column change.  For an
   entering column with FTRANed direction w pivoting in row r:
     FTRAN step:  t = v_r / w_r;  v_i -= w_i * t (i != r);  v_r = t
     BTRAN step:  y_r = (y_r - sum_{i != r} w_i * y_i) / w_r
   The file is rebuilt from scratch (Gauss-Jordan with partial
   pivoting, slack columns first) every [refactor_every] etas, at which
   point the basic values are also recomputed from the original data to
   flush accumulated drift.

   The origin (all structural variables at 0, slacks basic at rhs) is
   feasible because rhs >= 0, so no phase 1 is needed. *)

type eta = { er : int; wr : float; ew : (int * float) array (* excludes er *) }

let solve ?(eps = Tin_util.Fcmp.(default_policy.pivot_eps)) ?(max_iters = 50_000)
    ?(refactor_every = 64) ?metrics ~c ~upper ~rhs ~cols () =
  let n = Array.length c in
  let m = Array.length rhs in
  let npivots = ref 0 and nflips = ref 0 and nretries = ref 0 and nrefact = ref 0 in
  let record outcome =
    Obs.Counter.add c_iters (!npivots + !nflips + !nretries);
    Obs.Counter.add c_pivots !npivots;
    Obs.Counter.add c_flips !nflips;
    Obs.Counter.add c_refact !nrefact;
    Obs.Counter.add c_eta_resets !nretries;
    (match metrics with
    | Some (mt : Solver_metrics.t) ->
        mt.iterations <- mt.iterations + !npivots + !nflips + !nretries;
        mt.pivots <- mt.pivots + !npivots;
        mt.bound_flips <- mt.bound_flips + !nflips;
        mt.refactorizations <- mt.refactorizations + !nrefact
    | None -> ());
    outcome
  in
  if Array.length upper <> n then invalid_arg "Sparse.solve: bounds arity mismatch";
  if Array.length cols <> n then invalid_arg "Sparse.solve: column arity mismatch";
  if refactor_every < 1 then invalid_arg "Sparse.solve: refactor_every must be positive";
  Array.iter
    (fun u -> if Float.is_nan u || u < 0.0 then invalid_arg "Sparse.solve: bad upper bound")
    upper;
  Array.iter
    (fun b -> if b < 0.0 then invalid_arg "Sparse.solve: negative rhs (origin must be feasible)")
    rhs;
  let cols =
    Array.map
      (fun entries ->
        List.iter
          (fun (i, _) ->
            if i < 0 || i >= m then invalid_arg "Sparse.solve: row index out of range")
          entries;
        Array.of_list entries)
      cols
  in
  let ncols = n + m in
  (* --- eta file --- *)
  let dummy = { er = 0; wr = 1.0; ew = [||] } in
  let etas = ref (Array.make 32 dummy) in
  let neta = ref 0 in
  let push_eta e =
    if !neta = Array.length !etas then begin
      let bigger = Array.make (2 * !neta) dummy in
      Array.blit !etas 0 bigger 0 !neta;
      etas := bigger
    end;
    !etas.(!neta) <- e;
    incr neta
  in
  let ftran v =
    for k = 0 to !neta - 1 do
      let { er; wr; ew } = !etas.(k) in
      let t = v.(er) in
      if t <> 0.0 then begin
        let t = t /. wr in
        Array.iter (fun (i, wi) -> v.(i) <- v.(i) -. (wi *. t)) ew;
        v.(er) <- t
      end
    done
  in
  let btran y =
    for k = !neta - 1 downto 0 do
      let { er; wr; ew } = !etas.(k) in
      let s = ref y.(er) in
      Array.iter (fun (i, wi) -> s := !s -. (wi *. y.(i))) ew;
      y.(er) <- !s /. wr
    done
  in
  (* --- columns (slacks implicit) --- *)
  let scatter j v =
    if j < n then Array.iter (fun (i, a) -> v.(i) <- v.(i) +. a) cols.(j)
    else v.(j - n) <- v.(j - n) +. 1.0
  in
  let col_dot y j =
    if j < n then Array.fold_left (fun acc (i, a) -> acc +. (a *. y.(i))) 0.0 cols.(j)
    else y.(j - n)
  in
  (* --- basis state --- *)
  let basis = Array.init m (fun i -> n + i) in
  let is_basic = Array.make ncols false in
  for i = 0 to m - 1 do
    is_basic.(n + i) <- true
  done;
  let at_upper = Array.make ncols false in
  let xb = Array.copy rhs in
  let bound j = if j < n then upper.(j) else infinity in
  let cost j = if j < n then c.(j) else 0.0 in
  let w = Array.make m 0.0 (* FTRANed entering column / scratch *) in
  let y = Array.make m 0.0 (* simplex multipliers *) in
  let base_etas = ref 0 (* eta count right after the last reinversion *) in
  let refactorize () =
    incr nrefact;
    neta := 0;
    let newbasis = Array.make m (-1) in
    let assigned = Array.make m false in
    (* Slack columns first: with an empty eta file a basic slack n+i is
       already the unit vector of row i, so it installs with a trivial
       (skipped) eta.  Structural columns then pivot with row choice by
       largest magnitude among unassigned rows. *)
    let structural = ref [] in
    Array.iter
      (fun q ->
        if q >= n then begin
          newbasis.(q - n) <- q;
          assigned.(q - n) <- true
        end
        else structural := q :: !structural)
      basis;
    List.iter
      (fun q ->
        Array.fill w 0 m 0.0;
        scatter q w;
        ftran w;
        let r = ref (-1) and best = ref 0.0 in
        for i = 0 to m - 1 do
          if (not assigned.(i)) && Float.abs w.(i) > !best then begin
            best := Float.abs w.(i);
            r := i
          end
        done;
        if !r < 0 then failwith "Sparse.solve: singular basis";
        let r = !r in
        let ew = ref [] in
        for i = 0 to m - 1 do
          if i <> r && Float.abs w.(i) > 1e-13 then ew := (i, w.(i)) :: !ew
        done;
        push_eta { er = r; wr = w.(r); ew = Array.of_list !ew };
        newbasis.(r) <- q;
        assigned.(r) <- true)
      (List.sort compare !structural);
    Array.blit newbasis 0 basis 0 m;
    (* Recompute basic values from the original data:
       x_B = B^-1 (rhs - sum of at-upper nonbasic columns at their bound). *)
    Array.blit rhs 0 xb 0 m;
    for j = 0 to n - 1 do
      if (not is_basic.(j)) && at_upper.(j) && upper.(j) <> 0.0 then
        Array.iter (fun (i, a) -> xb.(i) <- xb.(i) -. (a *. upper.(j))) cols.(j)
    done;
    ftran xb;
    for i = 0 to m - 1 do
      if xb.(i) < 0.0 && xb.(i) > -1e-9 then xb.(i) <- 0.0
    done;
    base_etas := !neta
  in
  (* --- pricing --- *)
  let compute_y () =
    for i = 0 to m - 1 do
      y.(i) <- cost basis.(i)
    done;
    btran y
  in
  let reduced_cost j = cost j -. col_dot y j in
  let improving j d = if at_upper.(j) then d < -.eps else d > eps in
  (* Candidate list for partial (multiple) pricing: a full Dantzig scan
     stocks the list with the most improving columns; subsequent
     iterations re-price only the candidates (against fresh
     multipliers) until the list runs dry, then rescan.  Optimality is
     only ever declared by a full scan. *)
  let cand_size = 32 in
  let cand = Array.make cand_size (-1) in
  let cand_d = Array.make cand_size 0.0 in
  let ncand = ref 0 in
  let full_scan () =
    ncand := 0;
    for j = 0 to ncols - 1 do
      if not is_basic.(j) then begin
        let d = reduced_cost j in
        if improving j d then begin
          let a = Float.abs d in
          if !ncand < cand_size then begin
            cand.(!ncand) <- j;
            cand_d.(!ncand) <- a;
            incr ncand
          end
          else begin
            (* replace the weakest kept candidate when beaten *)
            let weakest = ref 0 in
            for k = 1 to cand_size - 1 do
              if cand_d.(k) < cand_d.(!weakest) then weakest := k
            done;
            if a > cand_d.(!weakest) then begin
              cand.(!weakest) <- j;
              cand_d.(!weakest) <- a
            end
          end
        end
      end
    done;
    let best = ref (-1) and best_a = ref 0.0 in
    for k = 0 to !ncand - 1 do
      if cand_d.(k) > !best_a then begin
        best_a := cand_d.(k);
        best := cand.(k)
      end
    done;
    !best
  in
  let pick_entering ~bland =
    if bland then begin
      (* Bland: lowest-index improving column, full scan. *)
      let r = ref (-1) and j = ref 0 in
      while !r < 0 && !j < ncols do
        if not is_basic.(!j) then begin
          let d = reduced_cost !j in
          if improving !j d then r := !j
        end;
        incr j
      done;
      !r
    end
    else begin
      let best = ref (-1) and best_a = ref 0.0 in
      let k = ref 0 in
      while !k < !ncand do
        let j = cand.(!k) in
        if is_basic.(j) then begin
          cand.(!k) <- cand.(!ncand - 1);
          cand_d.(!k) <- cand_d.(!ncand - 1);
          decr ncand
        end
        else begin
          let d = reduced_cost j in
          if improving j d && Float.abs d > !best_a then begin
            best_a := Float.abs d;
            best := j
          end;
          incr k
        end
      done;
      if !best >= 0 then !best else full_scan ()
    end
  in
  let finish () =
    (* Flush eta-file drift before reading the solution off the basis. *)
    if !neta > 0 then refactorize ();
    let solution = Array.make n 0.0 in
    for j = 0 to n - 1 do
      if (not is_basic.(j)) && at_upper.(j) then solution.(j) <- upper.(j)
    done;
    Array.iteri (fun i q -> if q < n then solution.(q) <- xb.(i)) basis;
    let objective = ref 0.0 in
    for j = 0 to n - 1 do
      objective := !objective +. (c.(j) *. solution.(j))
    done;
    Optimal { objective = !objective; solution }
  in
  let bland_after = 200 + (20 * (m + ncols)) in
  (* The [max_iters] budget is checked only after pricing has found an
     improving variable, so it bounds the budgeted work passes (pivots,
     bound flips, refactorize-retries) exactly (see
     {!Solver_metrics}). *)
  let rec iterate k =
    begin
      if !neta - !base_etas >= refactor_every then refactorize ();
      compute_y ();
      let q = pick_entering ~bland:(k > bland_after) in
      if q < 0 then finish ()
      else if k >= max_iters then Iteration_limit
      else begin
        Array.fill w 0 m 0.0;
        scatter q w;
        ftran w;
        let sigma = if at_upper.(q) then -1.0 else 1.0 in
        (* Ratio test with upper bounds over z_i = sigma * w_i: a basic
           variable blocks at 0 (z > 0) or at its upper bound (z < 0);
           ties between rows go to the lowest basic index (Bland). *)
        let t_star = ref (bound q) in
        let block = ref (-1) in
        let block_at_upper = ref false in
        for i = 0 to m - 1 do
          let z = sigma *. w.(i) in
          if z > eps then begin
            let ratio = xb.(i) /. z in
            if
              ratio < !t_star -. 1e-12
              || (ratio < !t_star +. 1e-12 && !block >= 0 && basis.(i) < basis.(!block))
            then begin
              t_star := ratio;
              block := i;
              block_at_upper := false
            end
          end
          else if z < -.eps then begin
            let ub = bound basis.(i) in
            if ub < infinity then begin
              let ratio = (ub -. xb.(i)) /. -.z in
              if
                ratio < !t_star -. 1e-12
                || (ratio < !t_star +. 1e-12 && !block >= 0 && basis.(i) < basis.(!block))
              then begin
                t_star := ratio;
                block := i;
                block_at_upper := true
              end
            end
          end
        done;
        if !t_star = infinity then Unbounded
        else if !block >= 0 && Float.abs w.(!block) < 1e-7 && !neta > !base_etas then begin
          (* The pivot element is too small to trust through a long eta
             file; refactorize and redo the iteration on fresh numbers. *)
          incr nretries;
          refactorize ();
          iterate (k + 1)
        end
        else begin
          let step = Float.max 0.0 !t_star in
          if step <> 0.0 then
            for i = 0 to m - 1 do
              if w.(i) <> 0.0 then begin
                xb.(i) <- xb.(i) -. (step *. sigma *. w.(i));
                if xb.(i) < 0.0 && xb.(i) > -1e-11 then xb.(i) <- 0.0
              end
            done;
          if !block < 0 then begin
            (* Bound flip: q jumps to its other bound; no basis change. *)
            at_upper.(q) <- not at_upper.(q);
            incr nflips;
            iterate (k + 1)
          end
          else begin
            let r = !block in
            let p = basis.(r) in
            let vq = (if at_upper.(q) then bound q else 0.0) +. (sigma *. step) in
            let ew = ref [] in
            for i = 0 to m - 1 do
              if i <> r && Float.abs w.(i) > 1e-13 then ew := (i, w.(i)) :: !ew
            done;
            push_eta { er = r; wr = w.(r); ew = Array.of_list !ew };
            basis.(r) <- q;
            is_basic.(q) <- true;
            is_basic.(p) <- false;
            at_upper.(p) <- !block_at_upper;
            at_upper.(q) <- false;
            xb.(r) <- vq;
            incr npivots;
            iterate (k + 1)
          end
        end
      end
    end
  in
  record (iterate 0)
