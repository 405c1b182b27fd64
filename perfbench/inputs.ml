(* Input generation.  Every input is a pure function of the seed and
   the scale; the program under test only ever sees the files written
   here (or, for serve-btc, the HTTP stream read back from them). *)

module Spec = Tin_datasets.Spec
module Generator = Tin_datasets.Generator

let csv dir = Filename.concat dir "net.csv"
let tinb dir = Filename.concat dir "net.tinb"
let stream dir = Filename.concat dir "stream.jsonl"
let stream_meta dir = Filename.concat dir "stream.meta"

(* Scale factors against Spec's full-size shapes: sized so that one
   query takes about a second on a 2-core machine. *)
let default_scale = function
  | "batch-btc" -> 0.1
  | "patterns-prosper" -> 0.2
  | "serve-btc" -> 0.05
  | w -> invalid_arg ("unknown workload " ^ w)

(* Independent inputs per run.  The cost of one input swings by 10-20%
   from seed to seed (a few hub subgraphs dominate), so a run answers
   several and reports their mean: the spread between runs shrinks
   with the square root of the count. *)
let default_count = function
  | "batch-btc" -> 8
  | "patterns-prosper" -> 5
  | "serve-btc" -> 4
  | w -> invalid_arg ("unknown workload " ^ w)

let network spec ~scale ~seed = Generator.generate ~seed (Spec.scaled ~factor:scale spec)

let write_tinb path g = Snapshot.save path (Compact.of_graph g)

(* The monitored pair of the streaming workload: the busiest sender
   and the busiest receiver, so the windowed flow moves often. *)
let busiest g =
  let out_n = Hashtbl.create 1024 and in_n = Hashtbl.create 1024 in
  let bump tbl v n = Hashtbl.replace tbl v (n + Option.value ~default:0 (Hashtbl.find_opt tbl v)) in
  Graph.iter_edges
    (fun s d is ->
      let n = List.length is in
      bump out_n s n;
      bump in_n d n)
    g;
  let best ?(except = min_int) tbl =
    Hashtbl.fold
      (fun v n (bv, bn) -> if v <> except && (n > bn || (n = bn && v < bv)) then (v, n) else (bv, bn))
      tbl (max_int, -1)
    |> fst
  in
  let source = best out_n in
  (source, best ~except:source in_n)

(* A tenth of the generator's time horizon. *)
let window_of_spec (spec : Spec.t) = spec.Spec.horizon /. 10.0

let write_stream dir g ~window =
  let source, sink = busiest g in
  Out_channel.with_open_text (stream_meta dir) (fun oc ->
      Printf.fprintf oc "%d %d %.17g\n" source sink window);
  Out_channel.with_open_text (stream dir) (fun oc ->
      Array.iter
        (fun (s, d, i) ->
          Printf.fprintf oc {|{"src":%d,"dst":%d,"time":%.17g,"qty":%.17g}|} s d
            (Interaction.time i) (Interaction.qty i);
          Out_channel.output_char oc '\n')
        (Graph.interactions_sorted g))

(* One set-up: generate one network and write every file the workload
   reads from it. *)
let generate workload ~scale ~seed dir =
  match workload with
  | "batch-btc" ->
      let g = Static.to_graph (network Spec.bitcoin ~scale ~seed) in
      Io.save_csv (csv dir) g;
      write_tinb (tinb dir) g
  | "patterns-prosper" ->
      let g = Static.to_graph (network Spec.prosper ~scale ~seed) in
      write_tinb (tinb dir) g
  | "serve-btc" ->
      let g = Static.to_graph (network Spec.bitcoin ~scale ~seed) in
      write_stream dir g ~window:(window_of_spec Spec.bitcoin)
  | w -> invalid_arg ("unknown workload " ^ w)

let read_stream dir =
  let source, sink, window =
    In_channel.with_open_text (stream_meta dir) (fun ic ->
        Scanf.sscanf (Option.get (In_channel.input_line ic)) "%d %d %f" (fun a b c -> (a, b, c)))
  in
  let lines = In_channel.with_open_text (stream dir) In_channel.input_lines in
  (source, sink, window, Array.of_list lines)

(* Input [i] of the run seeded [seed] lives in [dir/i], generated from
   its own derived seed. *)
let input_dir dir i = Filename.concat dir (string_of_int i)

let generate_all workload ~scale ~seed ~count dir =
  List.init count (fun i ->
      let d = input_dir dir i in
      if not (Sys.file_exists d) then Sys.mkdir d 0o755;
      Harness.settle ();
      snd (Harness.timed (fun () -> generate workload ~scale ~seed:((seed * 1000) + i) d)))

(* The input directories [generate_all] wrote, in order. *)
let inputs dir =
  let rec go i acc = if Sys.file_exists (input_dir dir i) then go (i + 1) (input_dir dir i :: acc) else List.rev acc in
  match go 0 [] with [] -> failwith ("no inputs in " ^ dir) | l -> l
