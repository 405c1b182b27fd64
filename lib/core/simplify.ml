type result = { graph : Graph.t; chains_reduced : int; removed_vertices : int }

(* Find a maximal chain s → v1 → … → vk with every interior vertex of
   in- and out-degree 1 (and distinct from the sink).  Returns the
   interior vertices and the terminal vertex, or None. *)
let find_chain g ~source ~sink =
  let rec extend interior v =
    (* [v] is a candidate interior vertex (already known to have
       in-degree 1). *)
    if v = sink || Graph.out_degree g v <> 1 || Graph.in_degree g v <> 1 then
      (List.rev interior, v)
    else
      match Graph.succs g v with
      | [ u ] -> extend (v :: interior) u
      | _ -> assert false
  in
  let candidate v1 =
    if v1 = sink || Graph.in_degree g v1 <> 1 || Graph.out_degree g v1 <> 1 then None
    else
      match extend [] v1 with
      | [], _ -> None (* v1 itself ended the chain: nothing to collapse *)
      | interior, last -> Some (interior, last)
  in
  List.find_map candidate (Graph.succs g source)

let run g0 ~source ~sink =
  if source = sink then invalid_arg "Simplify.run: source = sink";
  if not (Topo.is_dag g0) then invalid_arg "Simplify.run: graph has a cycle";
  let rec loop g chains removed =
    match find_chain g ~source ~sink with
    | None -> { graph = g; chains_reduced = chains; removed_vertices = removed }
    | Some (interior, last) ->
        (* Greedy flow over the chain edges alone; arrivals at [last]
           define the replacement edge (Lemma 3). *)
        let path = (source :: interior) @ [ last ] in
        let rec chain_graph acc = function
          | a :: (b :: _ as rest) ->
              chain_graph (Graph.add_edge acc ~src:a ~dst:b (Graph.edge g ~src:a ~dst:b)) rest
          | _ -> acc
        in
        let cg = chain_graph Graph.empty path in
        let arrivals = Greedy.arrivals_at_sink cg ~source ~sink:last in
        let g =
          List.fold_left (fun g v -> Graph.remove_vertex g v) g interior
        in
        (* Interior removal also removed (source, v1) and (v_j, last);
           merge the replacement interactions into any existing
           (source, last) edge. *)
        let g = Graph.add_edge g ~src:source ~dst:last arrivals in
        loop g (chains + 1) (removed + List.length interior)
  in
  loop g0 0 0

(* Flat positional chain reduction over pre-gathered columns: the
   [k]-edge chain 0 → 1 → … → k carries interaction
   (times.(j), qtys.(j)) on edge [pos.(j) → pos.(j) + 1].  Runs the
   greedy scan of [Greedy.arrivals_at_sink] on that chain — the
   global scan order (time, qty, src, dst) collapses to (time, qty,
   pos) on a chain, where dst = src + 1 — but with flat buffers and
   no graph or interaction construction.  This is the pattern tables'
   hot loop (Tables.cycles2/cycles3/chains2 call it once per
   candidate). *)
let reduce_chain_cols ~k ~times ~qtys ~pos =
  let mtot = Array.length pos in
  let perm = Array.init mtot Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare (Float.Array.get times a) (Float.Array.get times b) in
      if c <> 0 then c
      else
        let c = Float.compare (Float.Array.get qtys a) (Float.Array.get qtys b) in
        if c <> 0 then c else compare pos.(a) pos.(b))
    perm;
  let avail = Array.make (k + 1) 0.0 and pending = Array.make (k + 1) 0.0 in
  avail.(0) <- infinity;
  let dirty = Array.make (k + 1) 0 and n_dirty = ref 0 in
  let flush () =
    for i = 0 to !n_dirty - 1 do
      let u = dirty.(i) in
      let p = pending.(u) in
      if p > 0.0 then avail.(u) <- avail.(u) +. p;
      pending.(u) <- 0.0
    done;
    n_dirty := 0
  in
  let current = ref nan in
  let arrivals = ref [] in
  Array.iter
    (fun j ->
      let v = pos.(j) in
      let u = v + 1 in
      let tm = Float.Array.get times j and q = Float.Array.get qtys j in
      if not (Float.equal !current tm) then begin
        flush ();
        current := tm
      end;
      let b = avail.(v) in
      let moved = Float.min q b in
      if moved > 0.0 then begin
        if v <> 0 then avail.(v) <- b -. moved;
        if pending.(u) = 0.0 then begin
          dirty.(!n_dirty) <- u;
          incr n_dirty
        end;
        pending.(u) <- pending.(u) +. moved;
        if u = k then arrivals := Interaction.unchecked ~time:tm ~qty:moved :: !arrivals
      end)
    perm;
  List.rev !arrivals
