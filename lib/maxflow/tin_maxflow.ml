module Net = Net
module Dinic = Dinic
module Push_relabel = Push_relabel
module Time_expand = Time_expand

(* Index of [x] in the sorted array [a.(0) .. a.(n - 1)]; [-1] if
   absent. *)
let find (a : int array) ~n x =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if n > 0 && a.(!lo) = x then !lo else -1

(* Sorts [a] and moves its distinct values to the front; returns their
   count. *)
let sort_uniq (a : int array) =
  Array.sort Int.compare a;
  let n = ref 0 in
  for j = 0 to Array.length a - 1 do
    if !n = 0 || a.(!n - 1) <> a.(j) then begin
      a.(!n) <- a.(j);
      incr n
    end
  done;
  !n

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

(* The one network builder, fed by both entries.  The interactions
   come as columns grouped by sender: the sends of vertex index [i] are
   [first.(i) .. first.(i + 1) - 1], and [src]/[dst] hold vertex
   indices.  Interactions sent by [source_i] leave the master source
   and those received by [sink_i] enter the master sink; when the two
   are the same index that vertex is split.  Otherwise sends of the
   sink and receipts of the source get no arc.  [-1] stands for an
   absent terminal. *)
let solve ~first ~src ~dst ~time ~qty ~source_i ~sink_i =
  let nv = Array.length first - 1 and m = Array.length src in
  let finite_total = ref 0.0 in
  for k = 0 to m - 1 do
    if Float.is_finite qty.(k) then finite_total := !finite_total +. qty.(k)
  done;
  let big_m = !finite_total +. 1.0 in
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
    let from =
      if s = source_i then 0
      else if s = sink_i then -1
      else 2 + search sends ~lo:node.(s) ~hi:node.(s + 1) ~strict:false t
    in
    (* An arrival at [t] is first spendable at the receiver's first
       send strictly after [t]; after its last send it is dead. *)
    let into =
      if d = sink_i then 1
      else if d = source_i then -1
      else
        let j = search sends ~lo:node.(d) ~hi:node.(d + 1) ~strict:true t in
        if j < node.(d + 1) then 2 + j else -1
    in
    if from >= 0 && into >= 0 then begin
      let q = qty.(k) in
      ignore (Net.add_arc net ~src:from ~dst:into ~cap:(if Float.is_finite q then q else big_m))
    end
  done;
  Dinic.max_flow net ~source:0 ~sink:1

let max_flow g ~source ~sink =
  if source = sink then invalid_arg "Tin_maxflow.max_flow: source = sink";
  let verts = Array.of_list (Graph.vertices g) in
  let nv = Array.length verts in
  let m = Graph.n_interactions g in
  (* [Graph.iter_edges] groups the interactions by sender in ascending
     vertex order. *)
  let src = Array.make m 0 and dst = Array.make m 0 in
  let time = Array.make m 0.0 and qty = Array.make m 0.0 in
  let first = Array.make (nv + 1) m in
  let k = ref 0 and sender = ref (-1) in
  Graph.iter_edges
    (fun v u is ->
      let s = find verts ~n:nv v in
      while !sender < s do
        incr sender;
        first.(!sender) <- !k
      done;
      let d = find verts ~n:nv u in
      List.iter
        (fun (i : Interaction.t) ->
          src.(!k) <- s;
          dst.(!k) <- d;
          time.(!k) <- i.time;
          qty.(!k) <- i.qty;
          incr k)
        is)
    g;
  solve ~first ~src ~dst ~time ~qty ~source_i:(find verts ~n:nv source)
    ~sink_i:(find verts ~n:nv sink)

let max_flow_edges net eids ~source ~sink =
  (* The distinct edges in id order, which is [(src, dst)] order: their
     interactions come out grouped by sender. *)
  let es = Array.of_list eids in
  let ne = sort_uniq es in
  (* The local vertices: the edges' endpoints, ascending. *)
  let verts = Array.make (2 * ne) 0 in
  let m = ref 0 in
  for x = 0 to ne - 1 do
    verts.(2 * x) <- Compact.edge_src net es.(x);
    verts.((2 * x) + 1) <- Compact.edge_dst net es.(x);
    m := !m + Compact.edge_n_inter net es.(x)
  done;
  let nv = sort_uniq verts and m = !m in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let time = Array.make m 0.0 and qty = Array.make m 0.0 in
  let first = Array.make (nv + 1) m in
  let k = ref 0 and sender = ref (-1) in
  for x = 0 to ne - 1 do
    let e = es.(x) in
    let s = find verts ~n:nv (Compact.edge_src net e) in
    while !sender < s do
      incr sender;
      first.(!sender) <- !k
    done;
    let d = find verts ~n:nv (Compact.edge_dst net e) in
    for j = 0 to Compact.edge_n_inter net e - 1 do
      let i = Compact.edge_inter net e j in
      src.(!k) <- s;
      dst.(!k) <- d;
      time.(!k) <- Compact.inter_time net i;
      qty.(!k) <- Compact.inter_qty net i;
      incr k
    done
  done;
  solve ~first ~src ~dst ~time ~qty ~source_i:(find verts ~n:nv source)
    ~sink_i:(find verts ~n:nv sink)
