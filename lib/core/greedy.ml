module Obs = Tin_obs.Obs

let c_touches = Obs.Counter.make "greedy.buffer_touches"

type transfer = {
  src : Graph.vertex;
  dst : Graph.vertex;
  time : float;
  offered : float;
  moved : float;
}

(* Buffer state: [avail] is the quantity usable now (arrived strictly
   earlier), [pending] holds arrivals at the current timestamp, flushed
   into [avail] when the scan moves to a later timestamp. *)
type state = {
  avail : (Graph.vertex, float) Hashtbl.t;
  pending : (Graph.vertex, float) Hashtbl.t;
  mutable dirty : Graph.vertex list; (* vertices with pending quantity *)
  source : Graph.vertex;
}

let get tbl v = match Hashtbl.find_opt tbl v with Some x -> x | None -> 0.0

let flush st =
  List.iter
    (fun v ->
      let p = get st.pending v in
      if p > 0.0 then Hashtbl.replace st.avail v (get st.avail v +. p);
      Hashtbl.remove st.pending v)
    st.dirty;
  st.dirty <- []

let scan g ~source ~sink ~on_transfer =
  if source = sink then invalid_arg "Greedy: source = sink";
  let st =
    { avail = Hashtbl.create 64; pending = Hashtbl.create 16; dirty = []; source }
  in
  Hashtbl.replace st.avail source infinity;
  let current = ref nan in
  (* Buffer touches are counted in a plain local and published once
     after the scan: the per-interaction loop stays probe-free. *)
  let touches = ref 0 in
  Array.iter
    (fun (v, u, i) ->
      let tm = Interaction.time i and q = Interaction.qty i in
      if not (Float.equal !current tm) then begin
        flush st;
        current := tm
      end;
      (* The sink absorbs: quantity that reached it is never re-sent
         (the paper's graphs give the sink no outgoing edges; on
         arbitrary graphs this defines the flow as total absorbed). *)
      let b = if v = sink then 0.0 else get st.avail v in
      let moved = Float.min q b in
      if moved > 0.0 then begin
        if v <> st.source then Hashtbl.replace st.avail v (b -. moved);
        if get st.pending u = 0.0 then st.dirty <- u :: st.dirty;
        Hashtbl.replace st.pending u (get st.pending u +. moved);
        incr touches
      end;
      on_transfer { src = v; dst = u; time = tm; offered = q; moved })
    (Graph.interactions_sorted g);
  flush st;
  Obs.Counter.add c_touches !touches;
  (get st.avail sink, st)

let flow g ~source ~sink =
  let value, _ = scan g ~source ~sink ~on_transfer:ignore in
  value

let flow_trace g ~source ~sink =
  let log = ref [] in
  let value, _ = scan g ~source ~sink ~on_transfer:(fun tr -> log := tr :: !log) in
  (value, List.rev !log)

let arrivals_at_sink g ~source ~sink =
  let arrivals = ref [] in
  let on_transfer tr =
    if tr.dst = sink && tr.moved > 0.0 then
      arrivals := Interaction.unchecked ~time:tr.time ~qty:tr.moved :: !arrivals
  in
  let _, _ = scan g ~source ~sink ~on_transfer in
  List.rev !arrivals

let buffers g ~source ~sink =
  let _, st = scan g ~source ~sink ~on_transfer:ignore in
  List.map (fun v -> (v, get st.avail v)) (Graph.vertices g)
