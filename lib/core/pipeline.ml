module Obs = Tin_obs.Obs

(* Span args are built lazily so the disabled path allocates nothing. *)
let span name args f = if Obs.recording () then Obs.Span.with_ name ~args:(args ()) f else f ()

let graph_args g () =
  [
    ("vertices", string_of_int (Graph.n_vertices g));
    ("interactions", string_of_int (Graph.n_interactions g));
  ]

(* The increments below are size differences that cannot go negative:
   preprocess and simplify only ever remove vertices/interactions, so
   the [Counter.add] monotonicity guard never fires here. *)
let c_pre_vertices = Obs.Counter.make "pipeline.preprocess.vertices_removed"
let c_pre_interactions = Obs.Counter.make "pipeline.preprocess.interactions_removed"
let c_sim_interactions = Obs.Counter.make "pipeline.simplify.interactions_removed"

type method_ = Greedy | Lp | Pre | Pre_sim | Time_expanded

let all_methods = [ Greedy; Lp; Pre; Pre_sim; Time_expanded ]

let method_name = function
  | Greedy -> "Greedy"
  | Lp -> "LP"
  | Pre -> "Pre"
  | Pre_sim -> "PreSim"
  | Time_expanded -> "TimeExp"

type cls = A | B | C

let cls_name = function A -> "Class A" | B -> "Class B" | C -> "Class C"

type stage =
  | Soluble_as_given
  | Cyclic_fallback
  | Zero_after_preprocess
  | Soluble_after_preprocess
  | Soluble_after_simplify
  | Dinic_solve

let stage_name = function
  | Soluble_as_given -> "soluble-as-given"
  | Cyclic_fallback -> "cyclic-fallback"
  | Zero_after_preprocess -> "zero-after-preprocess"
  | Soluble_after_preprocess -> "soluble-after-preprocess"
  | Soluble_after_simplify -> "soluble-after-simplify"
  | Dinic_solve -> "dinic-solve"

let stage_counters =
  List.map
    (fun s -> (s, Obs.Counter.make ("pipeline.stage." ^ stage_name s)))
    [
      Soluble_as_given;
      Cyclic_fallback;
      Zero_after_preprocess;
      Soluble_after_preprocess;
      Soluble_after_simplify;
      Dinic_solve;
    ]

let count_stage s = Obs.Counter.incr (List.assq s stage_counters)

type report = {
  value : float;
  cls : cls;
  stage : stage;
  lp_vars_before : int;
  lp_vars_after : int;
}

exception Solver_failure of string

let solve_lp g ~source ~sink =
  match Lp_flow.solve g ~source ~sink with
  | Ok v -> v
  | Error `Unbounded -> raise (Solver_failure "LP unbounded (all-infinite source-sink path?)")
  | Error `Infeasible -> raise (Solver_failure "LP infeasible (internal error)")
  | Error `Iteration_limit -> raise (Solver_failure "LP iteration limit reached")

(* Dinic on the send-time-compressed time-expanded network: the final
   stage of both pipelines and their cyclic fallback. *)
let dinic g ~source ~sink =
  span "pipeline.time_expand" (graph_args g) (fun () -> Tin_maxflow.max_flow g ~source ~sink)

(* The Pre / PreSim pipelines.  [simplify] toggles the Algorithm-2
   stage.  Returns the flow, its class and stage, and the reduced graph
   the final Dinic solve ran on (for [report]'s size accounting).  Each
   stage runs inside an observability span carrying the input graph
   size; the preprocess/simplify spans additionally feed the
   [pipeline.*_removed] reduction counters. *)
let staged ~simplify g ~source ~sink =
  let ((_, _, stage, _) as result) =
    if Solubility.soluble g ~source ~sink then
      ( span "pipeline.greedy" (graph_args g) (fun () -> Greedy.flow g ~source ~sink),
        A,
        Soluble_as_given,
        None )
    else if not (Topo.is_dag g) then
      (* The DAG accelerators do not apply; the time-expanded reduction
         is structure-agnostic. *)
      (dinic g ~source ~sink, C, Cyclic_fallback, None)
    else begin
      let pre = span "pipeline.preprocess" (graph_args g) (fun () -> Preprocess.run g ~source ~sink) in
      if Obs.tracking () && not pre.Preprocess.zero_flow then begin
        let g' = pre.Preprocess.graph in
        Obs.Counter.add c_pre_vertices (Graph.n_vertices g - Graph.n_vertices g');
        Obs.Counter.add c_pre_interactions (Graph.n_interactions g - Graph.n_interactions g')
      end;
      if pre.Preprocess.zero_flow then (0.0, B, Zero_after_preprocess, None)
      else if Solubility.soluble pre.Preprocess.graph ~source ~sink then
        ( span "pipeline.greedy"
            (graph_args pre.Preprocess.graph)
            (fun () -> Greedy.flow pre.Preprocess.graph ~source ~sink),
          B,
          Soluble_after_preprocess,
          None )
      else begin
        let g' =
          if simplify then begin
            let gp = pre.Preprocess.graph in
            let simplified =
              span "pipeline.simplify" (graph_args gp) (fun () ->
                  (Simplify.run gp ~source ~sink).Simplify.graph)
            in
            Obs.Counter.add c_sim_interactions
              (if Obs.tracking () then Graph.n_interactions gp - Graph.n_interactions simplified
               else 0);
            simplified
          end
          else pre.Preprocess.graph
        in
        (* Simplification can leave a greedy-soluble graph (e.g. the
           whole thing collapsed to parallel source edges). *)
        if simplify && Solubility.soluble g' ~source ~sink then
          ( span "pipeline.greedy" (graph_args g') (fun () -> Greedy.flow g' ~source ~sink),
            C,
            Soluble_after_simplify,
            None )
        else (dinic g' ~source ~sink, C, Dinic_solve, Some g')
      end
    end
  in
  count_stage stage;
  result

let compute method_ g ~source ~sink =
  match method_ with
  | Greedy -> Greedy.flow g ~source ~sink
  | Lp -> solve_lp g ~source ~sink
  | Pre ->
      let v, _, _, _ = staged ~simplify:false g ~source ~sink in
      v
  | Pre_sim ->
      let v, _, _, _ = staged ~simplify:true g ~source ~sink in
      v
  | Time_expanded -> Tin_maxflow.Time_expand.max_flow g ~source ~sink

let max_flow g ~source ~sink = compute Pre_sim g ~source ~sink

let classify g ~source ~sink =
  if Solubility.soluble g ~source ~sink then A
  else if not (Topo.is_dag g) then C
  else begin
    let pre = Preprocess.run g ~source ~sink in
    if pre.Preprocess.zero_flow || Solubility.soluble pre.Preprocess.graph ~source ~sink then B
    else C
  end

let report ?(simplify = true) g ~source ~sink =
  let lp_vars_before = Lp_flow.n_variables g ~source ~sink in
  let value, cls, stage, solved = staged ~simplify g ~source ~sink in
  let lp_vars_after = match solved with Some g' -> Lp_flow.n_variables g' ~source ~sink | None -> 0 in
  { value; cls; stage; lp_vars_before; lp_vars_after }
