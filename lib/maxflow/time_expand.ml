type t = {
  net : Net.t;
  source_node : int;
  sink_node : int;
  n_event_nodes : int;
  interaction_arcs : (Net.arc * (Graph.vertex * Graph.vertex * Interaction.t)) list;
}

module FloatSet = Set.Make (Float)
module IntMap = Map.Make (Int)

(* Per vertex and event time τ we create two nodes:
   - [b]: the buffer just before τ — what arrived strictly earlier and
     was carried across the interval; departures at τ draw from it;
   - [a]: the state just after τ — receives the arrivals at τ and
     whatever of [b] was not sent.
   The carry arc a(τ_k) → b(τ_{k+1}) has the vertex's buffer capacity
   (infinite by default — the paper's unbounded buffers), and b(τ) →
   a(τ) is infinite (same instant, no storage involved).  With
   infinite capacities this is equivalent to a single chain of
   holdover arcs; with finite ones it charges everything held across
   an interval — including quantity leaving at the very next event —
   against the capacity. *)
type event_nodes = { time : float; b : int; a : int }

let build ?(buffer_capacity = fun _ -> infinity) g ~source ~sink =
  if source = sink then invalid_arg "Time_expand.build: source = sink";
  if Graph.n_vertices g > 0 && not (Graph.mem_vertex g source && Graph.mem_vertex g sink) then
    invalid_arg "Time_expand.build: source or sink not in graph";
  let iter f = Graph.iter_edges (fun v u is -> List.iter (f v u) is) g in
  (* Big-M stand-in for infinite quantities. *)
  let finite_total =
    let acc = ref 0.0 in
    iter (fun _ _ i ->
        let q = Interaction.qty i in
        if Float.is_finite q then acc := !acc +. q);
    !acc
  in
  let big_m = finite_total +. 1.0 in
  let cap_of q = if Float.is_finite q then q else big_m in
  (* Event times per vertex. *)
  let events =
    let acc = ref IntMap.empty in
    iter (fun v u i ->
        let tm = Interaction.time i in
        let add vert =
          let s = match IntMap.find_opt vert !acc with Some s -> s | None -> FloatSet.empty in
          acc := IntMap.add vert (FloatSet.add tm s) !acc
        in
        add v;
        add u);
    !acc
  in
  let net = Net.create ~n:0 in
  let source_node = Net.add_node net in
  let sink_node = Net.add_node net in
  let node_of : (Graph.vertex, event_nodes array) Hashtbl.t = Hashtbl.create 64 in
  IntMap.iter
    (fun v times ->
      if v <> source then begin
        let cap =
          if v = sink then infinity
          else begin
            let c = buffer_capacity v in
            if Float.is_nan c || c < 0.0 then
              invalid_arg "Time_expand.build: bad buffer capacity";
            c
          end
        in
        let arr =
          FloatSet.elements times
          |> List.map (fun time ->
                 let b = Net.add_node net in
                 let a = Net.add_node net in
                 ignore (Net.add_arc net ~src:b ~dst:a ~cap:infinity);
                 { time; b; a })
          |> Array.of_list
        in
        Array.iteri
          (fun k { b; _ } ->
            if k > 0 then ignore (Net.add_arc net ~src:arr.(k - 1).a ~dst:b ~cap))
          arr;
        Hashtbl.add node_of v arr
      end)
    events;
  let find_event v tm =
    match Hashtbl.find_opt node_of v with
    | None -> None
    | Some arr ->
        let lo = ref 0 and hi = ref (Array.length arr - 1) and found = ref None in
        while !found = None && !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          let c = Float.compare arr.(mid).time tm in
          if c = 0 then found := Some arr.(mid)
          else if c < 0 then lo := mid + 1
          else hi := mid - 1
        done;
        !found
  in
  let interaction_arcs = ref [] in
  iter (fun v u i ->
      let tm = Interaction.time i and q = Interaction.qty i in
      let from_node =
        if v = source then Some source_node
        else Option.map (fun (e : event_nodes) -> e.b) (find_event v tm)
      in
      let to_node =
        if u = sink then Some sink_node
        else Option.map (fun (e : event_nodes) -> e.a) (find_event u tm)
      in
      match (from_node, to_node) with
      | Some f, Some t ->
          let arc = Net.add_arc net ~src:f ~dst:t ~cap:(cap_of q) in
          interaction_arcs := (arc, (v, u, i)) :: !interaction_arcs
      | None, _ | _, None ->
          (* Dead interaction (nothing can be buffered at v before
             tm -- the situation the preprocessing pass of Section
             4.2.3 exploits), or the target is the infinite-buffer
             source, which gains nothing. *)
          ());
  {
    net;
    source_node;
    sink_node;
    n_event_nodes = Net.n_nodes net - 2;
    interaction_arcs = !interaction_arcs;
  }

let solve_net ~algo net ~source ~sink =
  match algo with
  | `Dinic -> Dinic.max_flow net ~source ~sink
  | `Push_relabel -> Push_relabel.max_flow net ~source ~sink

let max_flow ?(algo = `Dinic) ?buffer_capacity g ~source ~sink =
  let { net; source_node; sink_node; _ } = build ?buffer_capacity g ~source ~sink in
  solve_net ~algo net ~source:source_node ~sink:sink_node

type solution = {
  value : float;
  interaction_flows : ((Graph.vertex * Graph.vertex * Interaction.t) * float) list;
}

let max_flow_detailed ?(algo = `Dinic) ?buffer_capacity g ~source ~sink =
  let te = build ?buffer_capacity g ~source ~sink in
  let value = solve_net ~algo te.net ~source:te.source_node ~sink:te.sink_node in
  let interaction_flows =
    List.rev_map (fun (arc, inter) -> (inter, Net.flow te.net arc)) te.interaction_arcs
  in
  { value; interaction_flows }
