(* End-to-end integration tests of the tinflow CLI binary: generate a
   network, then exercise every subcommand against it and check exit
   codes and key output fragments.  The binary is a declared dune
   dependency, reachable relatively from the test's working
   directory. *)

let exe =
  (* Under `dune runtest` the cwd is _build/default/test; under
     `dune exec` it is the project root. *)
  List.find_opt Sys.file_exists
    [ "../bin/tinflow.exe"; "_build/default/bin/tinflow.exe"; "bin/tinflow.exe" ]
  |> Option.value ~default:"../bin/tinflow.exe"

let run_capture args =
  let out = Filename.temp_file "tinflow_out" ".txt" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args (Filename.quote out) in
  let code = Sys.command cmd in
  let content = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, content)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_ok msg (code, content) =
  if code <> 0 then Alcotest.failf "%s: exit %d, output:\n%s" msg code content;
  content

let csv = Filename.temp_file "tinflow_net" ".csv"

let test_generate () =
  let out =
    check_ok "generate" (run_capture (Printf.sprintf "generate %s --shape prosper --factor 0.04 --seed 9" csv))
  in
  Alcotest.(check bool) "reports stats" true (contains out "wrote");
  Alcotest.(check bool) "file exists" true (Sys.file_exists csv)

let test_flow_explicit_endpoints () =
  let out = check_ok "flow" (run_capture (Printf.sprintf "flow %s -s 0 -t 1" csv)) in
  Alcotest.(check bool) "greedy line" true (contains out "greedy flow");
  Alcotest.(check bool) "maximum line" true (contains out "maximum flow");
  Alcotest.(check bool) "difficulty line" true (contains out "Class")

let test_flow_synthetic_endpoints_hint () =
  (* The dense synthetic network puts every vertex on a cycle, so the
     default synthetic endpoints cannot apply; the CLI must explain
     rather than crash. *)
  let code, out = run_capture (Printf.sprintf "flow %s" csv) in
  if code = 0 then Alcotest.(check bool) "computed" true (contains out "maximum flow")
  else Alcotest.(check bool) "hint shown" true (contains out "hint:")

let test_flow_split_and_method () =
  let out = check_ok "flow split" (run_capture (Printf.sprintf "flow %s --split 0 -m timeexp" csv)) in
  Alcotest.(check bool) "method output" true (contains out "TimeExp flow")

(* Unknown or equal terminals are user errors under every method and in
   the split, source and sink forms: exit 1 with a message naming the
   vertex (a valid query exits 0), never 125, and no flight-recorder
   dump in the working directory. *)
let test_flow_bad_endpoints () =
  let dir = Filename.temp_file "tinflow_flow_cwd" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let forms =
        [
          ("--split 9999", Some "vertex 9999");
          ("--source 1 --sink 1", Some "vertex 1");
          ("--source 9999 --sink 1", Some "vertex 9999");
          ("--source 1 --sink 9999", Some "vertex 9999");
          (* Every vertex of this network is on a cycle, so the
             synthetic other terminal is refused first. *)
          ("--source 9999", Some "tinflow:");
          ("--sink 9999", Some "tinflow:");
          ("--split 0", None);
          ("--source 0 --sink 1", None);
        ]
      in
      List.iter
        (fun m ->
          List.iter
            (fun (form, error) ->
              let args = Printf.sprintf "flow %s %s %s" (Filename.quote csv) form m in
              let out = Filename.concat dir "out.txt" in
              let code =
                Sys.command
                  (Printf.sprintf "cd %s && %s %s > %s 2>&1" (Filename.quote dir)
                     (Filename.quote exe) args (Filename.quote out))
              in
              let content = In_channel.with_open_text out In_channel.input_all in
              Sys.remove out;
              match error with
              | Some needle ->
                  if code <> 1 || not (contains content needle) then
                    Alcotest.failf "%s: exit %d, expected 1 naming %s:\n%s" args code needle
                      content
              | None ->
                  if code <> 0 then Alcotest.failf "%s: exit %d:\n%s" args code content)
            forms)
        [ ""; "-m greedy"; "-m lp"; "-m pre"; "-m presim"; "-m timeexp" ];
      Alcotest.(check (list string)) "no flight dump" [] (Array.to_list (Sys.readdir dir)))

(* Every subcommand that takes terminals shares flow's check: an
   unknown or repeated vertex exits 1 with a message naming it, before
   any oracle or solve runs (verify used to shrink forever on an
   unknown source; paths and profile used to exit 125 or print an
   all-zero profile). *)
let test_terminal_check_every_subcommand () =
  let forms =
    [
      ("-s 9999 -t 1", "vertex 9999");
      ("-s 1 -t 9999", "vertex 9999");
      ("-s 1 -t 1", "vertex 1");
    ]
  in
  List.iter
    (fun (cmd, forms) ->
      List.iter
        (fun (form, needle) ->
          let args = Printf.sprintf "%s %s %s" cmd (Filename.quote csv) form in
          let code, out = run_capture args in
          if code <> 1 || not (contains out needle) then
            Alcotest.failf "%s: exit %d, expected 1 naming %s:\n%s" args code needle out)
        forms)
    [
      ("verify", ("-s 9999", "vertex 9999") :: ("-t 9999", "vertex 9999") :: forms);
      ("paths", forms);
      ("profile", forms);
      ("profile --greedy", forms);
    ]

(* A pinned source with out-degree 0 is one of the network's sinks; the
   synthetic super-sink must not collect it along an infinite edge
   (that printed "greedy flow: inf" and the engine's big-M as the
   maximum).  Symmetrically for a pinned sink with in-degree 0. *)
let test_flow_pinned_terminal_not_fed () =
  let net = Filename.temp_file "tinflow_btc" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove net)
    (fun () ->
      let _ =
        check_ok "generate bitcoin"
          (run_capture (Printf.sprintf "generate %s --shape bitcoin --factor 0.02 --seed 7" net))
      in
      let g = Tin_graph.Io.load_graph net in
      let pick degree =
        match List.find_opt (fun v -> degree g v = 0) (Graph.vertices g) with
        | Some v -> v
        | None -> Alcotest.fail "no vertex of degree 0 on that side"
      in
      List.iter
        (fun form ->
          let out = check_ok ("flow " ^ form) (run_capture (Printf.sprintf "flow %s %s" net form)) in
          let greedy, maximum =
            Scanf.sscanf out "greedy flow: %f maximum flow: %f" (fun a b -> (a, b))
          in
          if not (Float.is_finite greedy && Float.is_finite maximum && greedy <= maximum +. 1e-9)
          then Alcotest.failf "flow %s: greedy %g, maximum %g" form greedy maximum)
        [
          Printf.sprintf "--source %d" (pick Graph.out_degree);
          Printf.sprintf "--sink %d" (pick Graph.in_degree);
        ])

(* Figure 1(a) of the paper (s = 0, x = 1, y = 2, z = 3, t = 5):
   greedy flow 2, maximum flow 5.  The LP method and the default
   engine must print the same maximum flow. *)
let test_flow_lp_method () =
  let net = Filename.temp_file "tinflow_fig1a" ".csv" in
  Out_channel.with_open_text net (fun oc ->
      output_string oc
        "src,dst,time,qty\n0,1,1,3\n0,1,7,5\n1,3,5,5\n0,2,2,6\n2,3,8,5\n2,5,9,4\n3,5,2,3\n\
         3,5,10,1\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove net)
    (fun () ->
      let value meth =
        let out =
          check_ok ("flow -m " ^ meth)
            (run_capture (Printf.sprintf "flow %s -s 0 -t 5 -m %s" net meth))
        in
        Scanf.sscanf out "%s flow: %f" (fun _ v -> v)
      in
      let presim = value "presim" in
      Alcotest.(check (float 1e-9)) "maximum flow" 5.0 presim;
      Alcotest.(check (float 1e-9)) "LP = PreSim" presim (value "lp"))

let test_paths () =
  let out = check_ok "paths" (run_capture (Printf.sprintf "paths %s -s 0 -t 1 --top 3" csv)) in
  Alcotest.(check bool) "route summary" true (contains out "temporal routes")

let test_provenance () =
  (* A fixed miniature network with a known answer: vertex 3 absorbs 6
     units, 5 of which were born at the 0->1 interaction under every
     policy's totals (the vectors differ). *)
  let net = Filename.temp_file "tinflow_prov" ".csv" in
  Out_channel.with_open_text net (fun oc ->
      output_string oc "src,dst,time,qty\n0,1,1,5\n2,1,2,3\n1,3,3,6\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove net)
    (fun () ->
      let out =
        check_ok "provenance"
          (run_capture (Printf.sprintf "provenance %s --sink 3 --policy lrb --top 5" net))
      in
      Alcotest.(check bool) "header" true (contains out "provenance of vertex 3");
      Alcotest.(check bool) "policy named" true (contains out "lrb policy");
      Alcotest.(check bool) "total reported" true (contains out "buffered quantity: 6");
      Alcotest.(check bool) "origin row" true (contains out "interaction #0 0->1");
      Alcotest.(check bool) "spill stats" true (contains out "spills: 0");
      let out2 =
        check_ok "provenance rooted"
          (run_capture
             (Printf.sprintf "provenance %s --sink 3 --source 0 --policy prop" net))
      in
      Alcotest.(check bool) "rooted total = greedy" true
        (contains out2 "buffered quantity: 5");
      let code, err = run_capture (Printf.sprintf "provenance %s --sink 99" net) in
      Alcotest.(check bool) "unknown sink rejected" true (code <> 0);
      Alcotest.(check bool) "unknown sink diagnostic" true (contains err "99"))

let test_profile () =
  let out = check_ok "profile" (run_capture (Printf.sprintf "profile %s -s 0 -t 1 --greedy" csv)) in
  Alcotest.(check bool) "csv header" true (contains out "time,cumulative_flow")

let test_patterns_builtin_and_custom () =
  let out =
    check_ok "patterns"
      (run_capture (Printf.sprintf "patterns %s -p p2 --custom \"a->b, b->a'\" --limit 500" csv))
  in
  Alcotest.(check bool) "table rendered" true (contains out "Pattern instances");
  Alcotest.(check bool) "builtin row" true (contains out "P2");
  Alcotest.(check bool) "custom row" true (contains out "a->b, b->a'")

let test_patterns_precompute () =
  let out =
    check_ok "patterns pb" (run_capture (Printf.sprintf "patterns %s -p rp2 --precompute" csv))
  in
  Alcotest.(check bool) "PB mode" true (contains out "(PB)")

let test_patterns_parallel_matches_sequential () =
  (* --jobs must not change untruncated results; --hybrid must agree
     with the plain graph-browsing output. *)
  let args j extra = Printf.sprintf "patterns %s -p p2 -p p3 --jobs %d%s" csv j extra in
  let seq = check_ok "patterns jobs=1" (run_capture (args 1 "")) in
  let par = check_ok "patterns jobs=3" (run_capture (args 3 "")) in
  let hybrid = check_ok "patterns hybrid" (run_capture (args 3 " --hybrid")) in
  Alcotest.(check string) "jobs=3 output identical" seq par;
  Alcotest.(check bool) "hybrid mode banner" true (contains hybrid "GB hybrid");
  (* Same table body: compare everything after the banner line. *)
  let body s = match String.index_opt s '\n' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  Alcotest.(check string) "hybrid table identical" (body seq) (body hybrid);
  let code, _ = run_capture (args 0 "") in
  Alcotest.(check bool) "jobs=0 rejected" true (code <> 0)

let test_patterns_time_budget () =
  let out =
    check_ok "patterns budget"
      (run_capture (Printf.sprintf "patterns %s -p p3 --time-budget-ms 0.001" csv))
  in
  Alcotest.(check bool) "table rendered" true (contains out "Pattern instances")

let test_metrics_and_trace () =
  (* --metrics prints the counter table to stderr; --trace writes a
     Chrome-trace JSON object with at least one complete span. *)
  let trace = Filename.temp_file "tinflow_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists trace then Sys.remove trace)
    (fun () ->
      let out =
        check_ok "flow --metrics --trace"
          (run_capture (Printf.sprintf "flow %s -s 0 -t 1 --metrics --trace %s" csv trace))
      in
      Alcotest.(check bool) "counter table" true (contains out "observability: counters");
      Alcotest.(check bool) "a counter is reported" true (contains out "pipeline.stage.");
      Alcotest.(check bool) "trace announced" true (contains out "trace written to");
      let json = In_channel.with_open_text trace In_channel.input_all in
      Alcotest.(check bool) "JSON object format" true (String.length json > 0 && json.[0] = '{');
      Alcotest.(check bool) "traceEvents array" true (contains json "\"traceEvents\"");
      Alcotest.(check bool) "dropped_events field" true (contains json "\"dropped_events\"");
      Alcotest.(check bool) "complete events" true (contains json "\"ph\": \"X\"");
      Alcotest.(check bool) "thread metadata" true (contains json "thread_name");
      (* The same flags work on a pattern search and record spans from
         the patterns layer. *)
      let out2 =
        check_ok "patterns --metrics --trace"
          (run_capture
             (Printf.sprintf "patterns %s -p p2 --limit 200 --metrics --trace %s" csv trace))
      in
      Alcotest.(check bool) "ticket counter" true (contains out2 "catalog.tickets");
      let json2 = In_channel.with_open_text trace In_channel.input_all in
      Alcotest.(check bool) "catalog span" true (contains json2 "catalog.search"))

let test_dot () =
  let out = check_ok "dot" (run_capture (Printf.sprintf "dot %s" csv)) in
  Alcotest.(check bool) "digraph" true (contains out "digraph")

let test_bad_usage () =
  let code, _ = run_capture "flow /nonexistent.csv" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  let code, _ = run_capture "nonsense-subcommand" in
  Alcotest.(check bool) "unknown subcommand" true (code <> 0)

let corrupt_fixture =
  List.find_opt Sys.file_exists [ "data/corrupt.csv"; "test/data/corrupt.csv" ]
  |> Option.value ~default:"data/corrupt.csv"

let test_corrupt_csv_diagnostic () =
  (* Malformed input must produce a file:line:column diagnostic and a
     nonzero exit, not a backtrace. *)
  let code, out = run_capture (Printf.sprintf "flow %s -s 0 -t 1" corrupt_fixture) in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "no backtrace" true (not (contains out "Raised at"));
  Alcotest.(check bool) "file:line:column diagnostic" true (contains out "corrupt.csv:3:9");
  Alcotest.(check bool) "names the defect" true (contains out "NaN")

let test_verify_fuzz_clean () =
  let out = check_ok "verify" (run_capture "verify --seed 42 --cases 50") in
  Alcotest.(check bool) "summary" true (contains out "all invariants held")

let test_verify_injected_caught () =
  let dir = Filename.temp_file "tinflow_dump" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let code, out =
        run_capture (Printf.sprintf "verify --seed 42 --cases 10 --inject 0.25 --dump %s" dir)
      in
      Alcotest.(check int) "exit 1" 1 code;
      Alcotest.(check bool) "disagreement reported" true (contains out "max-flow-disagreement");
      Alcotest.(check bool) "counterexample path shown" true
        (contains out "minimized counterexample");
      Alcotest.(check bool) "CSV dumped" true
        (Array.exists
           (fun n -> Filename.check_suffix n ".csv")
           (Sys.readdir dir)))

let test_verify_single_network () =
  let out = check_ok "verify csv" (run_capture (Printf.sprintf "verify %s -s 0 -t 1" csv)) in
  Alcotest.(check bool) "all oracles agree" true (contains out "ok: all oracles agree")

let test_log_json () =
  let out =
    check_ok "flow --log-json" (run_capture (Printf.sprintf "flow %s -s 0 -t 1 --log-json" csv))
  in
  Alcotest.(check bool) "run.start event" true (contains out "{\"event\":\"run.start\"");
  Alcotest.(check bool) "run.end event" true (contains out "\"event\":\"run.end\"");
  Alcotest.(check bool) "exit code recorded" true (contains out "\"exit_code\":0")

let test_listen_announces_port () =
  (* --listen 0 binds an ephemeral port, announces it, and shuts the
     endpoint down cleanly when the run ends. *)
  let out =
    check_ok "verify --listen" (run_capture "verify --seed 7 --cases 5 --listen 0")
  in
  Alcotest.(check bool) "endpoint announced" true
    (contains out "serving /metrics, /metrics.json and /healthz on port")

(* --- serve daemon end to end --------------------------------------- *)

let http_request ~port request =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let payload = Bytes.of_string request in
      let off = ref 0 in
      while !off < Bytes.length payload do
        off := !off + Unix.write sock payload !off (Bytes.length payload - !off)
      done;
      let buf = Bytes.create 4096 in
      let acc = Buffer.create 1024 in
      let rec drain () =
        let got = Unix.read sock buf 0 (Bytes.length buf) in
        if got > 0 then begin
          Buffer.add_subbytes acc buf 0 got;
          drain ()
        end
      in
      drain ();
      Buffer.contents acc)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* Wait (with timeout) until the daemon's log satisfies [pred]. *)
let rec await ?(tries = 200) path pred =
  let text = try read_file path with Sys_error _ -> "" in
  if pred text then text
  else if tries = 0 then Alcotest.failf "timed out waiting; log so far:\n%s" text
  else begin
    Unix.sleepf 0.05;
    await ~tries:(tries - 1) path pred
  end

let test_serve_daemon_e2e () =
  (* Full lifecycle: start the daemon on an ephemeral port, stream a
     cycle over POST /ingest, confirm the windowed flow and the
     pattern alert, scrape the serve gauges, then shut down cleanly
     with SIGTERM. *)
  let log = Filename.temp_file "tinflow_serve" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      let err_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let pid =
        Unix.create_process exe
          [|
            exe; "serve"; "--source"; "0"; "--sink"; "2"; "--window"; "100"; "--cadence";
            "2"; "--pattern"; "p2"; "--min-flow"; "1"; "--log-json";
          |]
          Unix.stdin Unix.stdout err_fd
      in
      Unix.close err_fd;
      let killed = ref false in
      Fun.protect
        ~finally:(fun () ->
          if not !killed then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid)
          end)
        (fun () ->
          let text = await log (fun t -> contains t "\"event\":\"serve.start\"") in
          let port =
            let key = "\"port\":" in
            match String.index_opt text 'p' with
            | _ -> (
                let rec find i =
                  if i + String.length key > String.length text then
                    Alcotest.fail "no port in serve.start event"
                  else if String.sub text i (String.length key) = key then begin
                    let stop = ref (i + String.length key) in
                    while
                      !stop < String.length text
                      && text.[!stop] >= '0'
                      && text.[!stop] <= '9'
                    do
                      incr stop
                    done;
                    int_of_string (String.sub text (i + String.length key) (!stop - i - String.length key))
                  end
                  else find (i + 1)
                in
                find 0)
          in
          (* Stream a 2-cycle: source feeds 0->1->2 (flow 4) and 1->0
             returns 3, so P2 alerts on the cadence tick. *)
          let body =
            "{\"src\":0,\"dst\":1,\"time\":1,\"qty\":5}\n\
             {\"src\":1,\"dst\":0,\"time\":2,\"qty\":3}\n\
             {\"src\":1,\"dst\":2,\"time\":3,\"qty\":4}\n"
          in
          let resp =
            http_request ~port
              (Printf.sprintf
                 "POST /ingest HTTP/1.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
                 (String.length body) body)
          in
          Alcotest.(check bool) "ingest 200" true (contains resp "HTTP/1.1 200");
          Alcotest.(check bool) "all accepted" true (contains resp "\"accepted\":3");
          (* The daemon's reported flow equals the batch greedy value:
             0->1 delivers 5 at t=1, the return 1->0 drains 3 at t=2,
             so 1->2 can only relay the remaining 2 at t=3. *)
          let status =
            http_request ~port "GET /status HTTP/1.1\r\nConnection: close\r\n\r\n"
          in
          Alcotest.(check bool) "windowed flow exact" true (contains status "\"flow\":2");
          (* The new serve gauges are in the Prometheus exposition. *)
          let metrics =
            http_request ~port "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
          in
          Alcotest.(check bool) "ingested counter" true
            (contains metrics "serve_ingested_total 3");
          Alcotest.(check bool) "window gauge" true
            (contains metrics "serve_window_interactions 3");
          Alcotest.(check bool) "lag gauge present" true
            (contains metrics "serve_ingest_lag_seconds");
          Alcotest.(check bool) "rows gauge present" true
            (contains metrics "serve_rows_recomputed_total");
          (* Clean shutdown on SIGTERM. *)
          Unix.kill pid Sys.sigterm;
          let _, wstatus = Unix.waitpid [] pid in
          killed := true;
          (match wstatus with
          | Unix.WEXITED 0 -> ()
          | Unix.WEXITED n -> Alcotest.failf "serve exited %d" n
          | Unix.WSIGNALED n -> Alcotest.failf "serve killed by signal %d" n
          | Unix.WSTOPPED n -> Alcotest.failf "serve stopped by signal %d" n);
          let final = read_file log in
          Alcotest.(check bool) "pattern alert emitted" true
            (contains final "\"event\":\"serve.alert\"");
          Alcotest.(check bool) "alert names P2" true (contains final "\"pattern\":\"P2\"");
          Alcotest.(check bool) "clean stop event" true
            (contains final "\"event\":\"serve.stop\"")))

let test_convert_roundtrip () =
  let snap = Filename.temp_file "tinflow_conv" ".tinb" in
  let back = Filename.temp_file "tinflow_conv" ".csv" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove snap with Sys_error _ -> ());
      try Sys.remove back with Sys_error _ -> ())
    (fun () ->
      let out = check_ok "convert to tinb" (run_capture (Printf.sprintf "convert %s %s" csv snap)) in
      Alcotest.(check bool) "snapshot summary" true (contains out "snapshot v1");
      (* The snapshot feeds straight back into any subcommand via
         auto-detection. *)
      let out = check_ok "flow on snapshot" (run_capture (Printf.sprintf "flow %s -s 0 -t 1" snap)) in
      Alcotest.(check bool) "maximum line" true (contains out "maximum flow");
      let _ = check_ok "convert back to csv" (run_capture (Printf.sprintf "convert %s %s" snap back)) in
      (* Same network both ways: interaction counts agree. *)
      let c_csv = Tin_graph.Io.load csv in
      let c_back = Tin_graph.Io.load back in
      Alcotest.(check int) "interactions preserved"
        (Tin_graph.Compact.n_interactions c_csv)
        (Tin_graph.Compact.n_interactions c_back))

let test_convert_bad_input () =
  let code, out = run_capture (Printf.sprintf "convert %s out.unknownext" csv) in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  Alcotest.(check bool) "names the format" true (contains out "unknown output format")

let () =
  if not (Sys.file_exists exe) then begin
    print_endline "tinflow binary not found; skipping CLI integration tests";
    exit 0
  end;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists csv then Sys.remove csv)
    (fun () ->
      Alcotest.run "cli"
        [
          ( "tinflow",
            [
              Alcotest.test_case "generate" `Quick test_generate;
              Alcotest.test_case "flow (explicit endpoints)" `Quick test_flow_explicit_endpoints;
              Alcotest.test_case "flow (synthetic endpoints hint)" `Quick
                test_flow_synthetic_endpoints_hint;
              Alcotest.test_case "flow (split, method)" `Quick test_flow_split_and_method;
              Alcotest.test_case "flow -m lp = presim" `Quick test_flow_lp_method;
              Alcotest.test_case "flow bad endpoints" `Quick test_flow_bad_endpoints;
              Alcotest.test_case "terminal check on every subcommand" `Quick
                test_terminal_check_every_subcommand;
              Alcotest.test_case "flow pinned terminal not fed" `Quick
                test_flow_pinned_terminal_not_fed;
              Alcotest.test_case "paths" `Quick test_paths;
              Alcotest.test_case "provenance" `Quick test_provenance;
              Alcotest.test_case "profile" `Quick test_profile;
              Alcotest.test_case "patterns builtin+custom" `Quick test_patterns_builtin_and_custom;
              Alcotest.test_case "patterns precompute" `Quick test_patterns_precompute;
              Alcotest.test_case "patterns parallel determinism" `Quick
                test_patterns_parallel_matches_sequential;
              Alcotest.test_case "patterns time budget" `Quick test_patterns_time_budget;
              Alcotest.test_case "metrics and trace flags" `Quick test_metrics_and_trace;
              Alcotest.test_case "dot export" `Quick test_dot;
              Alcotest.test_case "bad usage" `Quick test_bad_usage;
              Alcotest.test_case "corrupt csv diagnostic" `Quick test_corrupt_csv_diagnostic;
              Alcotest.test_case "verify fuzz clean" `Quick test_verify_fuzz_clean;
              Alcotest.test_case "verify injected bug caught" `Quick test_verify_injected_caught;
              Alcotest.test_case "verify single network" `Quick test_verify_single_network;
              Alcotest.test_case "log-json events" `Quick test_log_json;
              Alcotest.test_case "listen announces port" `Quick test_listen_announces_port;
              Alcotest.test_case "serve daemon end to end" `Quick test_serve_daemon_e2e;
              Alcotest.test_case "convert round-trip" `Quick test_convert_roundtrip;
              Alcotest.test_case "convert bad output format" `Quick test_convert_bad_input;
            ] );
        ])
