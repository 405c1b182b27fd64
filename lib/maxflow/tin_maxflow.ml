module Net = Net
module Dinic = Dinic
module Push_relabel = Push_relabel
module Time_expand = Time_expand

(* Index of [x] in the sorted array [a], which must hold it. *)
let index_of (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* First position in [a.(lo) .. a.(hi - 1)] (ascending) whose value is
   [>= t] ([~strict:false]) or [> t] ([~strict:true]); [hi] if none. *)
let search (a : float array) ~lo ~hi ~strict t =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let x = a.(mid) in
    if x < t || (strict && x = t) then lo := mid + 1 else hi := mid
  done;
  !lo

let max_flow g ~source ~sink =
  if source = sink then invalid_arg "Tin_maxflow.max_flow: source = sink";
  let verts = Array.of_list (Graph.vertices g) in
  let nv = Array.length verts in
  let m = Graph.n_interactions g in
  (* The interactions as columns, in [Graph.iter_edges] order, which
     groups them by sender in ascending vertex order: the sends of
     vertex index [i] are [first.(i) .. first.(i + 1) - 1]. *)
  let src = Array.make m 0 and dst = Array.make m 0 in
  let time = Array.make m 0.0 and qty = Array.make m 0.0 in
  let first = Array.make (nv + 1) 0 in
  let k = ref 0 and sender = ref 0 and finite_total = ref 0.0 in
  Graph.iter_edges
    (fun v u is ->
      while verts.(!sender) < v do
        incr sender;
        first.(!sender) <- !k
      done;
      let d = index_of verts u in
      List.iter
        (fun (i : Interaction.t) ->
          src.(!k) <- !sender;
          dst.(!k) <- d;
          time.(!k) <- i.time;
          qty.(!k) <- i.qty;
          if Float.is_finite i.qty then finite_total := !finite_total +. i.qty;
          incr k)
        is)
    g;
  for i = !sender + 1 to nv do
    first.(i) <- m
  done;
  let big_m = !finite_total +. 1.0 in
  let source_i = if Graph.mem_vertex g source then index_of verts source else -1 in
  let sink_i = if Graph.mem_vertex g sink then index_of verts sink else -1 in
  (* One node per (vertex, distinct send time), for every vertex but
     the source and the sink: the node of vertex [i]'s [j]-th send time
     is [2 + node.(i) + j], and [sends.(node.(i) + j)] is that time. *)
  let sends = Array.make m 0.0 in
  let node = Array.make (nv + 1) 0 in
  for i = 0 to nv - 1 do
    let base = node.(i) in
    let n = ref 0 in
    if i <> source_i && i <> sink_i then begin
      let lo = first.(i) and hi = first.(i + 1) in
      Array.blit time lo sends base (hi - lo);
      (* Already sorted when the vertex has one out-edge, the common
         case on small instances. *)
      let sorted = ref true in
      for j = base + 1 to base + hi - lo - 1 do
        if sends.(j - 1) > sends.(j) then sorted := false
      done;
      if not !sorted then begin
        let seg = Array.sub sends base (hi - lo) in
        Array.sort Float.compare seg;
        Array.blit seg 0 sends base (hi - lo)
      end;
      for j = base to base + hi - lo - 1 do
        if !n = 0 || sends.(j) > sends.(base + !n - 1) then begin
          sends.(base + !n) <- sends.(j);
          incr n
        end
      done
    end;
    node.(i + 1) <- base + !n
  done;
  let net = Net.create ~n:(2 + node.(nv)) in
  (* Carry arcs: what a vertex holds at one send time stays available
     at its next one. *)
  for i = 0 to nv - 1 do
    for j = 2 + node.(i) to 2 + node.(i + 1) - 2 do
      ignore (Net.add_arc net ~src:j ~dst:(j + 1) ~cap:infinity)
    done
  done;
  for k = 0 to m - 1 do
    let s = src.(k) and d = dst.(k) and t = time.(k) in
    if s <> sink_i && d <> source_i then begin
      let from =
        if s = source_i then 0 else 2 + search sends ~lo:node.(s) ~hi:node.(s + 1) ~strict:false t
      in
      (* An arrival at [t] is first spendable at the receiver's first
         send strictly after [t]; after its last send it is dead. *)
      let into =
        if d = sink_i then 1
        else
          let j = search sends ~lo:node.(d) ~hi:node.(d + 1) ~strict:true t in
          if j < node.(d + 1) then 2 + j else -1
      in
      if into >= 0 then begin
        let q = qty.(k) in
        ignore (Net.add_arc net ~src:from ~dst:into ~cap:(if Float.is_finite q then q else big_m))
      end
    end
  done;
  Dinic.max_flow net ~source:0 ~sink:1
