(** The paper's four flow-computation methods, as compared in
    Section 6.2 (Tables 6–8, Figure 11), plus the time-expanded static
    reduction as an independent oracle.

    - [Greedy]: the linear scan of Section 4.1 — fastest, but computes
      the greedy flow, not necessarily the maximum.
    - [Lp]: direct LP formulation of the maximum flow (baseline).
    - [Pre]: greedy-solubility test, then preprocessing (Algorithm 1),
      then re-test; a residual that still needs a maximum-flow solver
      is solved by Dinic on the send-time-compressed time-expanded
      network ({!Tin_maxflow.max_flow}), not by the paper's LP.
    - [Pre_sim]: [Pre] plus graph simplification (Algorithm 2) before
      the Dinic solve — the paper's complete solution, with the
      solver swapped.
    - [Time_expanded]: Dinic on the event-time expanded static network
      ({!Tin_maxflow.Time_expand}), kept as an independent oracle. *)

type method_ = Greedy | Lp | Pre | Pre_sim | Time_expanded

val all_methods : method_ list
val method_name : method_ -> string

(** Difficulty classes of Section 6.2: [A] = greedy-soluble as given;
    [B] = greedy-soluble after preprocessing (including the degenerate
    zero-flow case); [C] = needs a maximum-flow solver even after
    preprocessing. *)
type cls = A | B | C

val cls_name : cls -> string

(** Which stage of the accelerated pipeline produced the value — the
    observability hook the differential verifier uses to confirm that
    every accelerated path is exercised and value-preserving. *)
type stage =
  | Soluble_as_given  (** Greedy sufficed on the input (Lemma 2). *)
  | Cyclic_fallback  (** Not a DAG: Dinic on the unreduced graph. *)
  | Zero_after_preprocess  (** Preprocessing proved zero flow. *)
  | Soluble_after_preprocess  (** Greedy sufficed after Algorithm 1. *)
  | Soluble_after_simplify  (** Greedy sufficed after Algorithm 2. *)
  | Dinic_solve  (** Dinic on the reduced graph. *)

val stage_name : stage -> string

type report = {
  value : float;  (** The computed flow. *)
  cls : cls;
  stage : stage;  (** Which pipeline stage computed [value]. *)
  lp_vars_before : int;
      (** LP variables of the direct formulation (problem size). *)
  lp_vars_after : int;
      (** LP-variable size of the reduced problem the final solve ran
          on: the graph [Dinic_solve] solved, measured as
          {!Lp_flow.n_variables}; 0 for every other stage. *)
}

exception Solver_failure of string
(** Raised when the LP solver of the [Lp] method reports
    unbounded/iteration-limit — does not happen on well-formed finite
    problems. *)

val compute :
  method_ ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  float
(** Flow value from [source] to [sink] by the given method.  For
    [Greedy] this is the greedy flow; for all other methods the
    maximum flow.  On cyclic graphs [Pre]/[Pre_sim] skip the DAG-only
    accelerators and run Dinic on the unreduced graph (which, like
    [Lp] and [Time_expanded], is structure-agnostic).
    @raise Solver_failure on LP breakdown ([Lp] only). *)

val max_flow :
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  float
(** [compute Pre_sim] — the recommended entry point. *)

val classify : Graph.t -> source:Graph.vertex -> sink:Graph.vertex -> cls
(** Difficulty class of a DAG (used to bucket benchmark subgraphs). *)

val report :
  ?simplify:bool ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  report
(** Full [Pre_sim] run with classification, stage and problem-size
    accounting.  [~simplify:false] toggles the Algorithm-2 stage off
    (the [Pre] pipeline) — the knob the verifier uses to check each
    preprocessing stage independently. *)
