let eps = Tin_util.Fcmp.(default_policy.path_eps)

let max_flow net ~source ~sink =
  if source = sink then invalid_arg "Edmonds_karp.max_flow: source = sink";
  let n = Net.n_nodes net in
  let start, arcs = Net.adjacency net in
  let pred = Array.make n (-1) in
  (* pred.(v) = arc that reached v *)
  let queue = Queue.create () in
  let total = ref 0.0 in
  let rec round () =
    Array.fill pred 0 n (-1);
    Queue.clear queue;
    Queue.add source queue;
    pred.(source) <- -2;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      let k = ref start.(v) in
      while (not !found) && !k < start.(v + 1) do
        let a = arcs.(!k) in
        incr k;
        let u = Net.dst net a in
        if pred.(u) = -1 && Net.residual net a > eps then begin
          pred.(u) <- a;
          if u = sink then found := true else Queue.add u queue
        end
      done
    done;
    if !found then begin
      (* Bottleneck along the predecessor chain. *)
      let rec bottleneck v acc =
        if v = source then acc
        else
          let a = pred.(v) in
          bottleneck (Net.dst net (Net.twin a)) (Float.min acc (Net.residual net a))
      in
      let f = bottleneck sink infinity in
      let rec push v =
        if v <> source then begin
          let a = pred.(v) in
          Net.augment net a f;
          push (Net.dst net (Net.twin a))
        end
      in
      push sink;
      total := !total +. f;
      round ()
    end
  in
  round ();
  !total
