(* Entry point of the benchmark binary; run.py drives it.

     bench.exe gen --workload W --seed N --dir D [--inputs K] [--scale F]
       writes the workload's K independent inputs into D/0 .. D/K-1
       and prints the median set-up time of one input;
     bench.exe run --workload W --dir D --seconds S [--trace-file P]
       runs the workload on the inputs in D for about S seconds with
       tracing off and prints its end-to-end metrics — or, with
       --trace-file, one traced answer on the first input and its
       per-layer metrics, the trace itself written to P.

   Both end with one JSON line on stdout. *)

let usage () =
  prerr_endline
    "usage: bench.exe gen --workload W --seed N --dir D [--inputs K] [--scale F]\n\
    \       bench.exe run --workload W --dir D --seconds S [--trace-file P]";
  exit 2

let workloads = [ "batch-btc"; "patterns-prosper"; "serve-btc" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let cmd, kvs = match args with c :: rest -> (c, opts [] rest) | [] -> usage () in
  let get k = match List.assoc_opt k kvs with Some v -> v | None -> usage () in
  let num k conv default = match List.assoc_opt k kvs with Some v -> conv v | None -> default in
  let workload = get "--workload" in
  if not (List.mem workload workloads) then usage ();
  let dir = get "--dir" in
  match cmd with
  | "gen" ->
      let seed = int_of_string (get "--seed") in
      let count = num "--inputs" int_of_string (Inputs.default_count workload) in
      let scale = num "--scale" float_of_string (Inputs.default_scale workload) in
      let samples = Inputs.generate_all workload ~scale ~seed ~count dir in
      Printf.printf {|{"setup_s": %s, "samples": [%s]}|} (Harness.fmt_num (Harness.median samples))
        (String.concat ", " (List.map Harness.fmt_num samples));
      print_newline ()
  | "run" ->
      let seconds = float_of_string (get "--seconds") in
      let dirs = Inputs.inputs dir in
      let correct, attempted, failed, metrics, extra =
        match (List.assoc_opt "--trace-file" kvs, workload) with
        | None, "batch-btc" -> W_batch.run ~dirs ~seconds
        | None, "patterns-prosper" -> W_patterns.run ~dirs ~seconds
        | None, _ -> W_serve.run ~dirs ~seconds
        | Some trace_file, w -> (
            let dir = List.hd dirs in
            match w with
            | "batch-btc" -> W_batch.run_traced ~dir ~trace_file
            | "patterns-prosper" -> W_patterns.run_traced ~dir ~trace_file
            | _ -> W_serve.run_traced ~dir ~trace_file)
      in
      print_endline (Harness.result_json ~correct ~attempted ~failed ~extra metrics)
  | _ -> usage ()
