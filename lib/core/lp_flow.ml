module Problem = Tin_lp.Problem

type lp = {
  problem : Problem.t;
  n_vars : int;
  n_rows : int;
  fixed_into_sink : float;
  objective_vars : (Problem.var * float) list;
  var_interactions : (Problem.var * (Graph.vertex * Graph.vertex * Interaction.t)) list;
  fixed_interactions : (Graph.vertex * Graph.vertex * Interaction.t) list;
}

type assignment = {
  src : Graph.vertex;
  dst : Graph.vertex;
  interaction : Interaction.t;
  amount : float;
}

(* Per-vertex event: either a variable interaction or a fixed
   (source-origin) constant, incoming or outgoing. *)
type event = {
  time : float;
  qty : float;
  var : Problem.var option; (* None = fixed source-origin interaction *)
  incoming : bool;
}

let build g ~source ~sink =
  if source = sink then invalid_arg "Lp_flow.build: source = sink";
  let problem = Problem.create ~direction:Problem.Maximize () in
  let events : (Graph.vertex, event list ref) Hashtbl.t = Hashtbl.create 64 in
  let push v e =
    match Hashtbl.find_opt events v with
    | Some l -> l := e :: !l
    | None -> Hashtbl.add events v (ref [ e ])
  in
  let n_vars = ref 0 in
  let fixed_into_sink = ref 0.0 in
  let objective_vars = ref [] in
  let var_interactions = ref [] in
  let fixed_interactions = ref [] in
  Graph.iter_edges
    (fun v u is ->
      List.iter
        (fun i ->
          let time = Interaction.time i and qty = Interaction.qty i in
          if v = source then begin
            (* Full quantity, no variable. *)
            fixed_interactions := (v, u, i) :: !fixed_interactions;
            if u = sink then fixed_into_sink := !fixed_into_sink +. qty
            else push u { time; qty; var = None; incoming = true }
          end
          else if v = sink then
            (* The sink absorbs; its outgoing interactions carry
               nothing (same convention as the greedy scan and the
               time-expanded network). *)
            ()
          else begin
            let obj = if u = sink then 1.0 else 0.0 in
            let var = Problem.add_var ~lb:0.0 ~ub:qty ~obj problem in
            incr n_vars;
            var_interactions := (var, (v, u, i)) :: !var_interactions;
            if u = sink then objective_vars := (var, 1.0) :: !objective_vars;
            push v { time; qty; var = Some var; incoming = false };
            if u <> sink && u <> source then push u { time; qty; var = Some var; incoming = true }
          end)
        is)
    g;
  (* Buffer constraints, one per distinct sending timestamp per vertex.
     Outgoing at τ may not use arrivals at τ, so at each distinct
     outgoing timestamp τ cumulative outgoing (≤ τ) is bounded by
     cumulative incoming (< τ). *)
  let n_rows = ref 0 in
  Hashtbl.iter
    (fun v evs ->
      if v <> source && v <> sink then begin
        let evs = Array.of_list !evs in
        Array.sort (fun a b -> Float.compare a.time b.time) evs;
        let n = Array.length evs in
        (* One forward pass over the sorted events, one timestamp group
           at a time, accumulating incoming terms (variables and
           constants) seen strictly before the current group. *)
        let in_vars = ref [] (* (coef, var) of incoming, accumulated *) in
        let in_fixed = ref 0.0 in
        let out_vars = ref [] in
        let i = ref 0 in
        while !i < n do
          let tau = evs.(!i).time in
          let stop = ref !i in
          while !stop < n && Float.equal evs.(!stop).time tau do
            incr stop
          done;
          (* Outgoing events of this group join the cumulative outgoing
             side before the constraint is emitted (cumulative ≤ τ). *)
          let has_out = ref false in
          for k = !i to !stop - 1 do
            let e = evs.(k) in
            if not e.incoming then begin
              (match e.var with
              | Some x -> out_vars := (1.0, x) :: !out_vars
              | None -> assert false (* outgoing of v ≠ source always has a var *));
              has_out := true
            end
          done;
          if !has_out && !in_fixed < infinity then begin
            (* Σ out(≤τ) − Σ in(<τ) ≤ fixed_in(<τ) *)
            let terms =
              List.rev_append !out_vars (List.map (fun (c, x) -> (-.c, x)) !in_vars)
            in
            Problem.add_le problem terms !in_fixed;
            incr n_rows
          end;
          (* Incoming arrivals at τ become available after τ. *)
          for k = !i to !stop - 1 do
            let e = evs.(k) in
            if e.incoming then
              match e.var with
              | Some x -> in_vars := (1.0, x) :: !in_vars
              | None -> in_fixed := !in_fixed +. e.qty
          done;
          i := !stop
        done
      end)
    events;
  {
    problem;
    n_vars = !n_vars;
    n_rows = !n_rows;
    fixed_into_sink = !fixed_into_sink;
    objective_vars = !objective_vars;
    var_interactions = !var_interactions;
    fixed_interactions = !fixed_interactions;
  }

let assignments lp value =
  List.rev_append
    (List.rev_map
       (fun (var, (src, dst, interaction)) -> { src; dst; interaction; amount = value var })
       lp.var_interactions)
    (List.rev_map
       (fun (src, dst, interaction) ->
         { src; dst; interaction; amount = Interaction.qty interaction })
       lp.fixed_interactions)

let solve_detailed ?dense ?eps ?max_iters g ~source ~sink =
  let lp = build g ~source ~sink in
  if lp.n_vars = 0 then Ok (lp.fixed_into_sink, assignments lp (fun _ -> 0.0))
  else
    let sol = Problem.solve ?dense ?eps ?max_iters lp.problem in
    match sol.Problem.status with
    | `Optimal ->
        Ok (sol.Problem.objective +. lp.fixed_into_sink, assignments lp sol.Problem.value)
    | `Unbounded -> Error `Unbounded
    | `Infeasible -> Error `Infeasible
    | `Iteration_limit -> Error `Iteration_limit

let solve ?dense ?eps ?max_iters g ~source ~sink =
  Result.map fst (solve_detailed ?dense ?eps ?max_iters g ~source ~sink)

let n_variables g ~source ~sink =
  Graph.fold_edges
    (fun v _ is acc -> if v = source || v = sink then acc else acc + List.length is)
    g 0
