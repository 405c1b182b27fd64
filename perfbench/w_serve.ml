(* serve-btc: a time-ordered Bitcoin-shaped stream posted as JSON
   lines to POST /ingest of an in-process Serve running Daemon.routes,
   with GET /status polls on the same single-threaded schedule.  The
   daemon keeps a sliding window of a tenth of the horizon and ticks
   over P2/P3 on a cadence, raising alerts.  No LP runs. *)

module Obs = Tin_obs.Obs
module Serve = Tin_obs.Serve
module Daemon = Tin_daemon.Daemon
module Ingest = Tin_daemon.Ingest
module Catalog = Tin_patterns.Catalog
module Json = Tin_util.Json

let post_size = 25 (* interactions per POST *)
let status_every = 10 (* every tenth request is a GET /status *)
let cadence = 1000 (* accepted interactions between pattern ticks *)
let offered_per_s = 100.0 (* open-loop request rate, below capacity *)
let closed_share = 0.4 (* of the run's time spent on closed-loop passes *)

type req = Post of int (* post index *) | Status of int (* posts answered before it *)

let schedule n_posts =
  let reqs = ref [] and posted = ref 0 and i = ref 0 in
  while !posted < n_posts do
    if (!i + 1) mod status_every = 0 then reqs := Status !posted :: !reqs
    else begin
      reqs := Post !posted :: !reqs;
      incr posted
    end;
    incr i
  done;
  (* A final poll reads the answer for the whole stream. *)
  Array.of_list (List.rev (Status !posted :: !reqs))

type record = {
  mutable due : float;
  mutable sent : float;
  mutable finished : float;
  mutable reply : (Http_client.reply, string) result;
  mutable handler_s : float;
}

type stream = {
  source : int;
  sink : int;
  window : float;
  lines : string array;
  bodies : string array;
  sizes : int array;
}

let load dir =
  let source, sink, window, lines = Inputs.read_stream dir in
  let n = Array.length lines in
  let n_posts = (n + post_size - 1) / post_size in
  let slice k = Array.sub lines (k * post_size) (min post_size (n - (k * post_size))) in
  {
    source;
    sink;
    window;
    lines;
    bodies = Array.init n_posts (fun k -> String.concat "\n" (Array.to_list (slice k)));
    sizes = Array.init n_posts (fun k -> Array.length (slice k));
  }

(* Handler time of the request being answered, written by the serving
   domain before it responds. *)
let handler_s = Atomic.make 0.0

let wrap (m, path, h) =
  let name = "daemon." ^ path in
  ( m,
    path,
    fun ~body ->
      if not !Layers.traced then h ~body
      else begin
        let t0 = Harness.now () in
        let r = Obs.Span.with_ name (fun () -> h ~body) in
        Atomic.set handler_s (Harness.now () -. t0);
        r
      end )

let config s =
  Daemon.config ~source:s.source ~sink:s.sink ~window:s.window ~cadence
    ~patterns:Catalog.[ Rigid P2; Rigid P3 ]
    ()

(* One pass over the whole stream against a fresh daemon.  [interval]
   = None is the closed loop (next request once the previous one is
   answered); Some dt sends request i at t0 + i·dt whether or not the
   daemon kept up, and every latency counts from that due time. *)
let pass s ~interval =
  let server, start_s =
    Harness.timed (fun () ->
        let d = Daemon.create (config s) in
        Serve.start ~addr:"127.0.0.1" ~port:0 ~routes:(List.map wrap (Daemon.routes d)) ())
  in
  let port = Serve.port server in
  let reqs = schedule (Array.length s.bodies) in
  let recs =
    Array.map (fun _ -> { due = 0.0; sent = 0.0; finished = 0.0; reply = Error "not sent"; handler_s = 0.0 }) reqs
  in
  let t0 = Harness.now () +. 0.005 in
  (* Traced, every request carries the answer's trace context, so the
     daemon's request spans join the bench's trace tree. *)
  let traceparent = if !Layers.traced then Obs.Span.current_traceparent () else None in
  Array.iteri
    (fun i r ->
      let rc = recs.(i) in
      (match interval with
      | Some dt ->
          rc.due <- t0 +. (float_of_int i *. dt);
          let wait = rc.due -. Harness.now () in
          if wait > 0.0 then Unix.sleepf wait
      | None -> rc.due <- Harness.now ());
      rc.sent <- Harness.now ();
      rc.reply <-
        (match r with
        | Post k -> Http_client.request ?traceparent ~port ~meth:"POST" ~path:"/ingest" ~body:s.bodies.(k) ()
        | Status _ -> Http_client.request ?traceparent ~port ~meth:"GET" ~path:"/status" ());
      rc.finished <- Harness.now ();
      rc.handler_s <- Atomic.get handler_s)
    reqs;
  Serve.stop server;
  (reqs, recs, start_s)

(* Reference flows: batch greedy over the window of every prefix a
   status poll observed. *)
let reference_flows s reqs =
  let entries =
    Array.map
      (fun l -> match Ingest.parse_line l with Ok e -> e | Error m -> failwith ("stream: " ^ m))
      s.lines
  in
  let g = ref Graph.empty and applied = ref 0 in
  Array.to_list reqs
  |> List.filter_map (function
       | Post _ -> None
       | Status posts ->
           let upto = min (Array.length entries) (posts * post_size) in
           while !applied < upto do
             let e = entries.(!applied) in
             g := Graph.add_interaction !g ~src:e.Ingest.src ~dst:e.Ingest.dst e.Ingest.inter;
             incr applied
           done;
           if upto = 0 then Some (upto, 0.0)
           else begin
             let last = Interaction.time entries.(upto - 1).Ingest.inter in
             let w = Tin_core.Window.restrict ~from_time:(last -. s.window) !g in
             Some (upto, Tin_core.Greedy.flow w ~source:s.source ~sink:s.sink)
           end)
  |> Array.of_list

let num_field k body =
  match Json.parse body with
  | Ok doc -> Option.bind (Json.member k doc) Json.num
  | Error _ -> None

let has_alerts body =
  match Json.parse body with
  | Ok doc -> ( match Json.member "alerts" doc with Some (Json.Arr (_ :: _)) -> true | _ -> false)
  | Error _ -> false

(* Judge every answer of a pass: failed = transport errors, non-200s
   and wrong answers. *)
let judge s refs (reqs, recs, _) =
  let failed = ref 0 and status_i = ref 0 in
  Array.iteri
    (fun i r ->
      let ok =
        match (r, recs.(i).reply) with
        | _, Error _ -> false
        | _, Ok { Http_client.code; _ } when code <> 200 -> false
        | Post k, Ok { Http_client.body; _ } ->
            num_field "accepted" body = Some (float_of_int s.sizes.(k))
            && num_field "rejected" body = Some 0.0
        | Status _, Ok { Http_client.body; _ } ->
            let upto, flow = refs.(!status_i) in
            incr status_i;
            num_field "accepted_total" body = Some (float_of_int upto)
            && (match num_field "flow" body with Some f -> Float.equal f flow | None -> false)
      in
      if not ok then incr failed)
    reqs;
  !failed

let latency_ms rc =
  match rc.reply with
  | Ok { Http_client.code = 200; _ } -> (rc.finished -. rc.due) *. 1e3
  | _ -> infinity

let select (reqs, recs, _) pick =
  let out = ref [] in
  Array.iteri (fun i r -> match pick r recs.(i) with Some v -> out := v :: !out | None -> ()) reqs;
  !out

let answer_time (_, recs, _) = recs.(Array.length recs - 1).finished -. recs.(0).sent

let run ~dirs ~seconds =
  let streams = Array.of_list (List.map load dirs) in
  let k = Array.length streams in
  let interval = 1.0 /. offered_per_s in
  (* Closed-loop rounds over every stream for the first share of the
     time, open-loop rounds for the rest; every pass a fresh daemon in
     a fresh process. *)
  let phase share interval =
    Harness.rounds ~seconds:(seconds *. share) streams (fun ~first:_ s ->
        let p = pass s ~interval in
        (p, answer_time p, Harness.peak_rss_mb ()))
  in
  let closed_samples = phase closed_share None in
  let opened_samples = phase (1.0 -. closed_share) (Some interval) in
  let closed = Array.map (List.map (fun s -> s.Harness.answer)) closed_samples in
  let opened = Array.map (List.map (fun s -> s.Harness.answer)) opened_samples in
  let peaks = Array.map (fun ss -> Harness.median (List.map (fun s -> s.Harness.peak_mb) ss)) closed_samples in
  let failed = ref 0 and attempted = ref 0 in
  Array.iteri
    (fun i s ->
      let reqs, _, _ = List.hd closed.(i) in
      let refs = reference_flows s reqs in
      List.iter
        (fun ((r, _, _) as p) ->
          failed := !failed + judge s refs p;
          attempted := !attempted + Array.length r)
        (closed.(i) @ opened.(i)))
    streams;
  Array.iteri
    (fun i s ->
      Harness.log "serve-btc: stream %d: %d interactions, closed pass %.3f s (median of %d), peak %.1f MB" i
        (Array.length s.lines)
        (Harness.median (List.map answer_time closed.(i)))
        (List.length closed.(i)) peaks.(i))
    streams;
  let opened = List.concat (Array.to_list opened) in
  let pick f = List.concat_map (fun p -> select p f) opened in
  let posts = pick (fun r rc -> match r with Post _ -> Some (latency_ms rc) | _ -> None) in
  let statuses = pick (fun r rc -> match r with Status _ -> Some (latency_ms rc) | _ -> None) in
  let alerted =
    pick (fun r rc ->
        match (r, rc.reply) with
        | Post _, Ok { Http_client.body; _ } when has_alerts body -> Some (latency_ms rc)
        | _ -> None)
  in
  let late = pick (fun _ rc -> Some ((rc.sent -. rc.due) *. 1e3)) in
  let answer_s = Harness.mean_of_medians (Array.map (List.map answer_time) closed) in
  let all_passes = List.concat (Array.to_list closed) @ opened in
  let start_s = Harness.median (List.map (fun (_, _, st) -> st) all_passes) in
  let interactions = Array.fold_left (fun acc s -> acc + Array.length s.lines) 0 streams in
  let tail_p, tail = Harness.tail_percentile posts in
  Harness.log "serve-btc: %d streams, %d interactions; %d closed + %d open passes; tail = p%.0f of %d posts"
    k interactions (List.length all_passes - List.length opened) (List.length opened) tail_p
    (List.length posts);
  let f = Harness.fmt_num in
  ( !failed = 0,
    !attempted,
    !failed,
    [
      Harness.metric "answer_s" "s" answer_s;
      Harness.metric "peak_rss_mb" "MB" (Harness.mean (Array.to_list peaks));
      Harness.metric "lat_ms_p50" "ms" (Harness.median posts);
      Harness.metric "lat_ms_p99" "ms" tail;
    ],
    [
      ("server_start_s", f start_s);
      ("first_input_answer_s", f (Harness.median (List.map answer_time closed.(0))));
      ("serve.status_ms_p95", f (Harness.percentile 95.0 statuses));
      ("serve.alert_ms_p50", f (Harness.median alerted));
      ("serve.ingest_per_s", f (float_of_int interactions /. float_of_int k /. answer_s));
      ("gen.late_ms_p99", f (Harness.percentile 99.0 late));
      ("gen.late_ms_max", f (Harness.percentile 100.0 late));
    ] )

(* One traced answer: the stream's bodies decoded, then posted in one
   closed-loop pass. *)
let run_traced ~dir ~trace_file =
  let s = load dir in
  Layers.start ();
  let gc0 = Layers.gc_now () in
  let ((reqs, recs, _) as p), decode_ok =
    Layers.answer @@ fun () ->
    let decode_ok =
      Array.for_all2
        (fun b n ->
          match Layers.span "ingest.parse_body" (fun () -> Ingest.parse_body b) with
          | Ok es -> List.length es = n
          | Error _ -> false)
        s.bodies s.sizes
    in
    (pass s ~interval:None, decode_ok)
  in
  let gc = Layers.gc_since gc0 in
  let an = Layers.finish trace_file in
  let failed = judge s (reference_flows s reqs) p + if decode_ok then 0 else 1 in
  let overhead_ms =
    Array.fold_left (fun acc rc -> acc +. ((rc.finished -. rc.sent -. rc.handler_s) *. 1e3)) 0.0 recs
  in
  let f = float_of_int in
  let values =
    Layers.common an ~gc
    @ [
        ("ingest.decode_ms", Layers.self_ms an "ingest.parse_body");
        ("http.overhead_ms", overhead_ms);
        ("daemon.ingest_self_ms", Layers.self_ms an "serve.ingest");
        ("daemon.tick_self_ms", Layers.self_ms an "serve.tick");
        ("daemon.ticks", f (Layers.counter an "serve.ticks_total"));
        ("daemon.alerts", f (Layers.counter an "serve.alerts_total"));
        ("daemon.status_handler_ms", Layers.self_ms an "daemon./status");
        ("daemon.rebuilds", f (Layers.counter an "serve.window_rebuilds_total"));
        ("daemon.evicted", f (Layers.counter an "serve.evicted_total"));
      ]
  in
  (failed = 0, Array.length reqs, failed, Layers.metrics values, Layers.traced_extra (answer_time p))
