type endpoints = { graph : Graph.t; source : Graph.vertex; sink : Graph.vertex }

let fresh_id g =
  match Graph.vertices g with [] -> 0 | vs -> List.fold_left max min_int vs + 1

let add_synthetic ?source:pinned_source ?sink:pinned_sink g =
  if Graph.n_vertices g = 0 then invalid_arg "Endpoints.add_synthetic: empty graph";
  List.iter
    (Option.iter (fun v ->
         if not (Graph.mem_vertex g v) then invalid_arg "Endpoints.add_synthetic: unknown vertex"))
    [ pinned_source; pinned_sink ];
  (* A pinned terminal never feeds (or drains into) the opposite
     synthetic terminal: a pinned source with out-degree 0 is one of
     the graph's sinks, and an infinite edge from it to the super-sink
     would make the flow infinite. *)
  let candidates all ~except ~side =
    match (all, List.filter (fun v -> Some v <> except) all) with
    | [], _ ->
        invalid_arg (Printf.sprintf "Endpoints.add_synthetic: no %s vertex (all on cycles)" side)
    | _, [] ->
        invalid_arg
          (Printf.sprintf "Endpoints.add_synthetic: no %s vertex other than the pinned terminal"
             side)
    | _, vs -> vs
  in
  let g, source =
    match pinned_source with
    | Some s -> (g, s)
    | None -> (
        match candidates (Graph.sources g) ~except:pinned_sink ~side:"source" with
        | [ s ] -> (g, s)
        | sources ->
            let s = fresh_id g in
            ( List.fold_left
                (fun g v ->
                  Graph.add_edge g ~src:s ~dst:v
                    [ Interaction.unchecked ~time:neg_infinity ~qty:infinity ])
                g sources,
              s ))
  in
  let g, sink =
    match pinned_sink with
    | Some t -> (g, t)
    | None -> (
        match candidates (Graph.sinks g) ~except:pinned_source ~side:"sink" with
        | [ t ] -> (g, t)
        | sinks ->
            let t = fresh_id g in
            ( List.fold_left
                (fun g v ->
                  Graph.add_edge g ~src:v ~dst:t
                    [ Interaction.unchecked ~time:infinity ~qty:infinity ])
                g sinks,
              t ))
  in
  { graph = g; source; sink }

let split g ~vertex =
  if not (Graph.mem_vertex g vertex) then invalid_arg "Endpoints.split: unknown vertex";
  let s = fresh_id g in
  let t = s + 1 in
  let outs = Graph.out_edges g vertex and ins = Graph.in_edges g vertex in
  let g = Graph.remove_vertex g vertex in
  let g = Graph.add_vertex (Graph.add_vertex g s) t in
  let g = List.fold_left (fun g (u, is) -> Graph.add_edge g ~src:s ~dst:u is) g outs in
  let g = List.fold_left (fun g (w, is) -> Graph.add_edge g ~src:w ~dst:t is) g ins in
  { graph = g; source = s; sink = t }
