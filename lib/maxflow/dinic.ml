let eps = Tin_util.Fcmp.(default_policy.path_eps)

(* A call allocates its work arrays and the BFS closure; the phases
   allocate nothing: the BFS queue is an int array, the blocking-flow
   DFS is iterative over an explicit arc path, and every float lives in
   a local the compiler keeps unboxed (with [Net.augment] inlined, as
   in release builds). *)
let max_flow net ~source ~sink =
  if source = sink then invalid_arg "Dinic.max_flow: source = sink";
  let n = Net.n_nodes net in
  let start, arcs = Net.adjacency net in
  let level = Array.make n (-1) in
  let queue = Array.make n 0 in
  (* [iter.(v)]: next adjacency slot of [v] to try in this phase, so
     each arc is examined O(1) times per phase. *)
  let iter = Array.make n 0 in
  (* Arcs of the current source->v path; a level-graph path has fewer
     than [n] arcs. *)
  let path = Array.make n 0 in
  let bfs () =
    Array.fill level 0 n (-1);
    level.(source) <- 0;
    queue.(0) <- source;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      for k = start.(v) to start.(v + 1) - 1 do
        let a = arcs.(k) in
        let u = Net.dst net a in
        if level.(u) < 0 && Net.residual net a > eps then begin
          level.(u) <- level.(v) + 1;
          queue.(!tail) <- u;
          incr tail
        end
      done
    done;
    level.(sink) >= 0
  in
  let total = ref 0.0 in
  while bfs () do
    Array.blit start 0 iter 0 n;
    (* Blocking flow: advance along admissible arcs; at the sink push
       the path's bottleneck and retreat to the tail of its first
       saturated arc; at a dead end retreat one arc and skip it. *)
    let v = ref source and depth = ref 0 in
    let blocked = ref false in
    while not !blocked do
      if !v = sink then begin
        let f = ref infinity in
        for d = 0 to !depth - 1 do
          let r = Net.residual net path.(d) in
          if r < !f then f := r
        done;
        for d = 0 to !depth - 1 do
          Net.augment net path.(d) !f
        done;
        total := !total +. !f;
        let d = ref 0 in
        while Net.residual net path.(!d) > eps do
          incr d
        done;
        depth := !d;
        v := if !d = 0 then source else Net.dst net path.(!d - 1)
      end
      else begin
        let u = !v in
        let stop = start.(u + 1) in
        while
          iter.(u) < stop
          &&
          let a = arcs.(iter.(u)) in
          not (level.(Net.dst net a) = level.(u) + 1 && Net.residual net a > eps)
        do
          iter.(u) <- iter.(u) + 1
        done;
        if iter.(u) < stop then begin
          let a = arcs.(iter.(u)) in
          path.(!depth) <- a;
          incr depth;
          v := Net.dst net a
        end
        else if u = source then blocked := true
        else begin
          decr depth;
          let p = Net.dst net (Net.twin path.(!depth)) in
          iter.(p) <- iter.(p) + 1;
          v := p
        end
      end
    done
  done;
  !total
