(* Shared measurement plumbing: clocks, order statistics, process
   memory, the metric list every run prints, and its JSON line. *)

let now () = Int64.to_float (Tin_util.Timer.now_ns ()) /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, as Tin_util.Stats, but
   defined on +inf samples (failed requests), which sort last and count
   as over every limit. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    if frac = 0.0 || a.(lo) = a.(hi) then a.(lo) else a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile 50.0 xs

(* The highest of the usual tail percentiles that still has at least
   ten samples beyond it; the median when no tail percentile has. *)
let tail_percentile xs =
  let n = float_of_int (List.length xs) in
  match List.find_opt (fun p -> n *. (1.0 -. (p /. 100.0)) >= 10.0) [ 99.0; 95.0; 90.0; 75.0 ] with
  | Some p -> (p, percentile p xs)
  | None -> (50.0, median xs)

(* VmHWM: the resident-set high-water mark of this process, in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
                kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

(* The one machine-readable line a run ends with; run.py reshapes it
   into the benchmark's result object. *)
let result_json ~correct ~attempted ~failed ?(extra = []) metrics =
  let b = Buffer.create 1024 in
  let add = Buffer.add_string b in
  add (Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {|} correct attempted failed);
  List.iteri
    (fun i m ->
      if i > 0 then add ", ";
      add
        (Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (fmt_num m.value)
           (Tin_util.Json.escape m.unit)))
    metrics;
  add "}";
  List.iter (fun (k, v) -> add (Printf.sprintf {|, "%s": %s|} k v)) extra;
  add "}";
  Buffer.contents b

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s)) fmt

(* Before a timed step: leave no earlier garbage for its clock to
   collect. *)
let settle () = Gc.full_major ()

(* [f ()] in a forked child, its result marshalled back.  The child
   starts from this process's small resident set and ends once [f] is
   done, so its VmHWM is what one process answering one input reaches
   — unlike this process, whose heap only grows over many answers.
   Call it while this process runs a single domain. *)
let in_child (type a) (f : unit -> a) : a =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let v = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc v [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Some (Marshal.from_channel ic : (a, string) result) with End_of_file -> None in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match v with
      | Some (Ok v) -> v
      | Some (Error e) -> failwith ("child: " ^ e)
      | None -> failwith "child died before answering")

type 'a sample = { answer : 'a; secs : float; peak_mb : float }

(* Answer the inputs in turn, each answer in a fresh forked process as
   a user's [tinflow] run would be: every input once, then on in the
   same order for as long as the next answer fits in [seconds].
   [f ~first x] runs in the child and returns its answer, the seconds
   it took and the child's VmHWM right after it, so that work [f] does
   afterwards (checks on the [first] answer of each input) stays off
   the clock and off the time budget.  Returns the samples of each
   input, oldest first. *)
let rounds ~seconds inputs f =
  let k = Array.length inputs in
  let samples = Array.make k [] in
  let answer i ~first =
    let s =
      in_child (fun () ->
          let answer, secs, peak_mb = f ~first inputs.(i) in
          { answer; secs; peak_mb })
    in
    samples.(i) <- s :: samples.(i);
    s.secs
  in
  (* One untimed answer first: the first process after a pause runs
     up to twice as slow. *)
  ignore (in_child (fun () -> f ~first:false inputs.(0)));
  let t_start = now () in
  let answering = List.fold_left (fun acc i -> acc +. answer i ~first:true) 0.0 (List.init k Fun.id) in
  let t_end = t_start +. seconds +. (now () -. t_start -. answering) in
  let rec more i last =
    let t0 = now () in
    if t0 +. last <= t_end then begin
      ignore (answer i ~first:false);
      more ((i + 1) mod k) (now () -. t0)
    end
  in
  more 0 (answering /. float_of_int k);
  Array.map List.rev samples

(* "0.812 0.790 s, 61.2 MB": an input's answer times, oldest first,
   and its median peak RSS, for the log. *)
let describe samples =
  Printf.sprintf "%s s, %.1f MB"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" s.secs) samples))
    (median (List.map (fun s -> s.peak_mb) samples))

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The mean over inputs of a statistic of each input's samples: inputs
   differ in cost, so pooling their samples would make the statistic
   depend on which input's samples land in the middle. *)
let mean_over_inputs stat per_input = mean (List.map stat (Array.to_list per_input))

let mean_of_medians per_input = mean_over_inputs median per_input
