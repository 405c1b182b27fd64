(* patterns-prosper: a Prosper-shaped network from a .tinb snapshot
   through Io.load, Catalog.precompute ~with_chains:true and
   Catalog.pb over all nine catalog patterns at jobs = 1 (a truncated
   search then does the same work every time). *)

module Catalog = Tin_patterns.Catalog
module Fcmp = Tin_util.Fcmp

let limit = 100_000

type row = { pattern : Catalog.pattern; result : Catalog.result; ms : float }

let query ?(keep = fun _ _ -> ()) path =
  Layers.answer @@ fun () ->
  let net = Layers.span "io.load" (fun () -> Io.load path) in
  let tables, precompute_s =
    Harness.timed (fun () ->
        Layers.span "catalog.precompute" (fun () -> Catalog.precompute ~jobs:1 ~with_chains:true net))
  in
  keep net tables;
  let rows =
    List.map
      (fun p ->
        let result, dt =
          Harness.timed (fun () ->
              Layers.span ("catalog.pb." ^ Catalog.pattern_name p) (fun () ->
                  Catalog.pb ~jobs:1 ~limit net tables p))
        in
        { pattern = p; result; ms = dt *. 1e3 })
      Catalog.all
  in
  (rows, precompute_s *. 1e3)

let same a b =
  List.for_all2
    (fun x y ->
      x.result.Catalog.instances = y.result.Catalog.instances
      && Float.equal x.result.Catalog.total_flow y.result.Catalog.total_flow
      && x.result.Catalog.truncated = y.result.Catalog.truncated)
    a b

(* Graph browsing must find what the tables found on the cheap,
   untruncated patterns. *)
let cross_checked = Catalog.[ Rigid P2; Relaxed RP2; Relaxed RP3 ]

let check net reference =
  List.for_all
    (fun p ->
      let pb = (List.find (fun r -> r.pattern = p) reference).result in
      let gb = Catalog.gb ~jobs:1 ~limit net p in
      let ok =
        (not pb.Catalog.truncated) && (not gb.Catalog.truncated)
        && pb.Catalog.instances = gb.Catalog.instances
        && Fcmp.approx_eq pb.Catalog.total_flow gb.Catalog.total_flow
      in
      if not ok then
        Harness.log "patterns-prosper: %s PB %d/%.17g vs GB %d/%.17g" (Catalog.pattern_name p)
          pb.Catalog.instances pb.Catalog.total_flow gb.Catalog.instances gb.Catalog.total_flow;
      ok)
    cross_checked

let n_patterns = List.length Catalog.all

(* One timed answer, in its own process; the first answer of each
   input is also checked against graph browsing. *)
let answer ~first path =
  let (rows, _), secs = Harness.timed (fun () -> query path) in
  let peak = Harness.peak_rss_mb () in
  let checked = first && check (Io.load path) rows in
  ((rows, checked), secs, peak)

let run ~dirs ~seconds =
  let samples = Harness.rounds ~seconds (Array.of_list (List.map Inputs.tinb dirs)) answer in
  (* Every answer of an input must equal its checked first answer. *)
  let failed_answers =
    Array.fold_left
      (fun acc ss ->
        let ref_, checked = (List.hd ss).Harness.answer in
        acc + List.length (List.filter (fun s -> not (checked && same (fst s.Harness.answer) ref_)) ss))
      0 samples
  in
  Array.iteri
    (fun i ss ->
      let rows, _ = (List.hd ss).Harness.answer in
      Harness.log "patterns-prosper: input %d: %s: %s" i (Harness.describe ss)
        (String.concat " "
           (List.map
              (fun r ->
                Printf.sprintf "%s=%d%s" (Catalog.pattern_name r.pattern) r.result.Catalog.instances
                  (if r.result.Catalog.truncated then "*" else ""))
              rows)))
    samples;
  let secs = Array.map (List.map (fun s -> s.Harness.secs)) samples in
  let ms = Array.map (List.map (fun t -> t *. 1e3)) secs in
  ( failed_answers = 0,
    n_patterns * Array.fold_left (fun acc ts -> acc + List.length ts) 0 secs,
    n_patterns * failed_answers,
    [
      Harness.metric "answer_s" "s" (Harness.mean_of_medians secs);
      Harness.metric "peak_rss_mb" "MB"
        (Harness.mean_of_medians (Array.map (List.map (fun s -> s.Harness.peak_mb)) samples));
      Harness.metric "lat_ms_p50" "ms" (Harness.mean_of_medians ms);
      Harness.metric "lat_ms_p99" "ms" (Harness.mean_over_inputs (fun xs -> snd (Harness.tail_percentile xs)) ms);
    ],
    [ ("first_input_answer_s", Harness.fmt_num (Harness.median secs.(0))) ] )

(* One traced answer, first in its process like the untraced answers;
   then an untraced one it must equal. *)
let run_traced ~dir ~trace_file =
  let path = Inputs.tinb dir in
  Layers.start ();
  let gc0 = Layers.gc_now () in
  let rows_n = ref 0 in
  let keep _ (t : Catalog.tables) =
    rows_n :=
      Tin_patterns.Tables.n_rows t.Catalog.l2 + Tin_patterns.Tables.n_rows t.Catalog.l3
      + Option.fold ~none:0 ~some:Tin_patterns.Tables.n_rows t.Catalog.c2
  in
  let (rows, precompute_ms), dt = Harness.timed (fun () -> query ~keep path) in
  let gc = Layers.gc_since gc0 in
  let an = Layers.finish trace_file in
  let ok = same rows (fst (query path)) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let lp_pattern r = match r.pattern with Catalog.Rigid (Catalog.P4 | Catalog.P6) -> true | _ -> false in
  let values =
    Layers.common an ~gc
    @ [
        ("io.load_ms", Layers.self_ms an "io.load");
        ("io.load_mwords", Layers.span_mwords "io.load");
        ("tables.precompute_ms", precompute_ms);
        ("tables.rows", float_of_int !rows_n);
        ("tables.precompute_mwords", Layers.span_mwords "catalog.precompute");
        ("catalog.pb_ms", sum (fun r -> r.ms));
        ("catalog.lp_pattern_ms", sum (fun r -> if lp_pattern r then r.ms else 0.0));
        ("catalog.instances", sum (fun r -> float_of_int r.result.Catalog.instances));
      ]
  in
  (ok, n_patterns, (if ok then 0 else n_patterns), Layers.metrics values, Layers.traced_extra dt)
