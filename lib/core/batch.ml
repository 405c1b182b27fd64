module Obs = Tin_obs.Obs
module Trace_ctx = Tin_obs.Trace_ctx

(* Chunk spans land on the recording domain's trace row (the span's
   [tid] is the domain id), so a trace shows how work spread over
   domains.  Args are built lazily: disabled runs must not allocate. *)
let span name args f = if Obs.recording () then Obs.Span.with_ name ~args:(args ()) f else f ()

(* Trace context is domain-local, so a spawned worker would start a
   fresh trace and its chunk spans would orphan from the caller's
   request span.  Capture the caller's context once and reinstall it
   in every worker (the caller runs its own worker inline under an
   identical context, so chunk spans parent the same way on every
   domain and the exported trace stitches into one tree). *)
let propagating worker =
  if Obs.recording () then begin
    let ctx = Trace_ctx.current () in
    fun () -> Trace_ctx.with_ctx ctx worker
  end
  else worker

type problem = { graph : Graph.t; source : Graph.vertex; sink : Graph.vertex }

let recommended_jobs () = Domain.recommended_domain_count ()

(* Chunked-queue parallel map: one atomic cursor over the item array;
   every domain (including the caller) claims [chunk] consecutive
   indices per fetch-and-add until the array is exhausted.  Results
   land in per-index slots, each written by exactly one domain;
   [Domain.join] publishes them to the caller. *)
let map ?jobs ?(chunk = 4) f items =
  if chunk < 1 then invalid_arg "Batch.map: chunk must be positive";
  let n = Array.length items in
  let jobs =
    match jobs with
    | Some j -> if j < 1 then invalid_arg "Batch.map: jobs must be positive" else j
    | None -> max 1 (min (recommended_jobs ()) n)
  in
  if n = 0 then [||]
  else if jobs = 1 then Array.map f items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let start = Atomic.fetch_and_add next chunk in
        if start < n then begin
          let stop = min n (start + chunk) in
          span "batch.map.chunk"
            (fun () -> [ ("start", string_of_int start); ("stop", string_of_int stop) ])
            (fun () ->
              for i = start to stop - 1 do
                results.(i) <-
                  Some
                    (match f items.(i) with
                    | v -> Ok v
                    | exception e -> Error (e, Printexc.get_raw_backtrace ()))
              done);
          loop ()
        end
      in
      loop ()
    in
    let worker = propagating worker in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

(* Order-preserving parallel reduce over an index range.  Indices are
   grouped into fixed-size chunks claimed from one atomic cursor; each
   chunk folds into its own fresh accumulator, and the chunk
   accumulators merge left-to-right in index order after all domains
   join.  Because the chunk layout depends only on [n] and [chunk] —
   never on [jobs] or on claim timing — the merged result is
   bit-identical for every job count (floating-point accumulation
   order included), as long as [body] itself is deterministic per
   index.  [stop] makes the reduce cooperative: once set, no further
   chunk is claimed and the per-index loop stops early; already-folded
   chunk accumulators still merge, so partial results survive. *)
let map_reduce ?jobs ?(chunk = 16) ?stop ~n ~init ~body ~merge () =
  if chunk < 1 then invalid_arg "Batch.map_reduce: chunk must be positive";
  if n < 0 then invalid_arg "Batch.map_reduce: negative range";
  let n_chunks = (n + chunk - 1) / chunk in
  let jobs =
    match jobs with
    | Some j -> if j < 1 then invalid_arg "Batch.map_reduce: jobs must be positive" else j
    | None -> max 1 (min (recommended_jobs ()) n_chunks)
  in
  if n_chunks = 0 then init ()
  else begin
    let stopped () = match stop with None -> false | Some s -> Atomic.get s in
    let slots = Array.make n_chunks None in
    let cursor = Atomic.make 0 in
    let worker () =
      let rec loop () =
        if not (stopped ()) then begin
          let c = Atomic.fetch_and_add cursor 1 in
          if c < n_chunks then begin
            let hi = min n ((c + 1) * chunk) in
            (match
               span "batch.map_reduce.chunk"
                 (fun () -> [ ("chunk", string_of_int c); ("hi", string_of_int hi) ])
                 (fun () ->
                   let acc = init () in
                   let i = ref (c * chunk) in
                   while !i < hi && not (stopped ()) do
                     body acc !i;
                     incr i
                   done;
                   acc)
             with
            | acc -> slots.(c) <- Some (Ok acc)
            | exception e -> slots.(c) <- Some (Error (e, Printexc.get_raw_backtrace ())));
            loop ()
          end
        end
      in
      loop ()
    in
    let worker = propagating worker in
    let helpers = List.init (min jobs n_chunks - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    let acc = ref None in
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok a) -> acc := Some (match !acc with None -> a | Some m -> merge m a)
        | None -> () (* skipped after [stop] *))
      slots;
    match !acc with None -> init () | Some a -> a
  end

(* Per-problem wall time of the whole pipeline, across all domains.
   The clock reads are gated on [Obs.enabled] so a disabled run stays
   syscall-free. *)
let h_solve_ms = Obs.Histogram.make "batch_solve_ms"

let max_flows ?jobs ?chunk ?(method_ = Pipeline.Pre_sim) problems =
  let compute { graph; source; sink } = Pipeline.compute method_ graph ~source ~sink in
  let compute =
    if Atomic.get Obs.enabled then fun p ->
      let t0 = Tin_util.Timer.now_ns () in
      let flow = compute p in
      Obs.Histogram.observe h_solve_ms
        (Int64.to_float (Int64.sub (Tin_util.Timer.now_ns ()) t0) /. 1e6);
      flow
    else compute
  in
  map ?jobs ?chunk compute (Array.of_list problems) |> Array.to_list
