type result = {
  graph : Graph.t;
  zero_flow : bool;
  removed_interactions : int;
  removed_edges : int;
  removed_vertices : int;
}

let run g0 ~source ~sink =
  if source = sink then invalid_arg "Preprocess.run: source = sink";
  let order = Topo.sort_exn g0 in
  let g = ref g0 in
  let stats_i = ref 0 and stats_e = ref 0 and stats_v = ref 0 in
  let remove_edge ~src ~dst =
    stats_i := !stats_i + List.length (Graph.edge !g ~src ~dst);
    stats_e := !stats_e + 1;
    g := Graph.remove_edge !g ~src ~dst
  in
  let remove_vertex v =
    (* Only called once all of v's edges are gone. *)
    stats_v := !stats_v + 1;
    g := Graph.remove_vertex !g v
  in
  (* Delete v (≠ sink) because it has no outgoing edges: its incoming
     edges are useless, and their removal may strand predecessors in
     the same way.  Predecessors precede v in topological order and
     will not be re-examined, so the clean-up must recurse now (the
     paper's lines 18–22). *)
  let rec delete_dead_end v =
    let preds = Graph.preds !g v in
    List.iter (fun w -> remove_edge ~src:w ~dst:v) preds;
    remove_vertex v;
    List.iter (fun w -> if w <> sink && Graph.out_degree !g w = 0 then delete_dead_end w) preds
  in
  let examine v =
    if v <> source && v <> sink && Graph.mem_vertex !g v then begin
      if Graph.in_degree !g v = 0 then begin
        (* Nothing can ever reach v: drop it with its outgoing edges
           (their targets are examined later in topological order). *)
        List.iter (fun u -> remove_edge ~src:v ~dst:u) (Graph.succs !g v);
        remove_vertex v
      end
      else begin
        (* Earliest possible arrival at v. *)
        let mintime =
          List.fold_left
            (fun acc (_, is) ->
              match is with [] -> acc | i :: _ -> Float.min acc (Interaction.time i))
            infinity (Graph.in_edges !g v)
        in
        List.iter
          (fun (u, is) ->
            let kept = List.filter (fun i -> Interaction.time i >= mintime) is in
            let dropped = List.length is - List.length kept in
            if dropped > 0 then begin
              stats_i := !stats_i + dropped;
              if kept = [] then begin
                stats_e := !stats_e + 1;
                g := Graph.remove_edge !g ~src:v ~dst:u
              end
              else g := Graph.set_edge !g ~src:v ~dst:u kept
            end)
          (Graph.out_edges !g v);
        if Graph.out_degree !g v = 0 then delete_dead_end v
      end
    end
  in
  List.iter examine order;
  let g = !g in
  let zero_flow =
    (not (Graph.mem_vertex g source))
    || (not (Graph.mem_vertex g sink))
    || not (Topo.reaches g source sink)
  in
  {
    graph = g;
    zero_flow;
    removed_interactions = !stats_i;
    removed_edges = !stats_e;
    removed_vertices = !stats_v;
  }
