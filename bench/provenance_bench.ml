(* Provenance-engine benchmark: sustained interactions/second of the
   policy-driven provenance scan (Tin_core.Provenance) over the flat
   Compact substrate, per selection policy, against the plain greedy
   scan as the no-attribution baseline.  Results go to
   BENCH_provenance.json for the bench-check regression gate; spill
   and peak-entry counts are deterministic for the fixed seed, so the
   baseline also pins the memory-bounding behaviour.

   The rooted scenario carries an exactness guard: the total it
   absorbs at the sink must equal Greedy.flow on the Graph.t bit for
   bit — the bench fails outright otherwise. *)

module Prov = Tin_core.Provenance
module Greedy = Tin_core.Greedy
module Timer = Tin_util.Timer
module Table = Tin_util.Table
module Prng = Tin_util.Prng

type result = {
  name : string;
  interactions : int;
  scan_ms : float;
  inter_per_s : float;
  spills : int;
  peak_entries : int;
}

(* Strictly increasing times over a modest vertex set: buffers fill,
   drain and re-fill, so the selection policies do real work and the
   entry budget spills on the hub vertices. *)
let make_graph ~n ~vertices rng =
  let g = ref Graph.empty in
  for i = 0 to n - 1 do
    let s = Prng.int rng vertices in
    let d = Prng.int rng vertices in
    let d = if d = s then (d + 1) mod vertices else d in
    g :=
      Graph.add_interaction !g ~src:s ~dst:d
        (Interaction.make ~time:(float_of_int i) ~qty:(float_of_int (1 + Prng.int rng 9)))
  done;
  !g

let scenario ~c ~n name run =
  let r, scan_ms = Timer.time_ms (fun () -> run c) in
  ( r,
    {
      name;
      interactions = n;
      scan_ms;
      inter_per_s = float_of_int n /. (scan_ms /. 1000.0);
      spills = r.Prov.spills;
      peak_entries = r.Prov.peak_entries;
    } )

let json_escape = Tin_util.Json.escape
let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let write_json path ~scale_name results =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"benchmark\": \"provenance\",\n";
  add "  \"scale\": \"%s\",\n" (json_escape scale_name);
  add "  \"scenarios\": [\n";
  List.iteri
    (fun i r ->
      add "    {\n";
      add "      \"name\": \"%s\",\n" (json_escape r.name);
      add "      \"interactions\": %d,\n" r.interactions;
      add "      \"spills\": %d,\n" r.spills;
      add "      \"peak_entries\": %d,\n" r.peak_entries;
      add "      \"scan_ms\": %s,\n" (json_float r.scan_ms);
      add "      \"inter_per_s\": %s\n" (json_float r.inter_per_s);
      add "    }%s\n" (if i < List.length results - 1 then "," else ""))
    results;
  add "  ]\n";
  add "}\n";
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Buffer.contents b))

let run ?(json = "BENCH_provenance.json") ~scale_name ~quick () =
  Printf.printf "Provenance scan: policy-driven origin attribution vs plain greedy scan\n%!";
  let rng = Prng.create ~seed:42 in
  let n = if quick then 30_000 else 200_000 in
  let vertices = 500 in
  let source = 0 and sink = 1 in
  let g = make_graph ~n ~vertices rng in
  let c = Compact.of_graph g in
  let policies = [ Prov.Lrb; Prov.Mrb; Prov.Proportional ] in
  let open_world =
    List.map
      (fun p -> snd (scenario ~c ~n (Prov.policy_name p) (Prov.run ~policy:p ~absorb:sink)))
      policies
  in
  let rooted_r, rooted =
    scenario ~c ~n "prop-rooted" (Prov.run ~policy:Prov.Proportional ~source ~absorb:sink)
  in
  (* The no-attribution floor: the plain greedy scalar scan over the
     Graph.t, for the overhead column — and the exactness guard. *)
  let greedy_v, greedy_ms = Timer.time_ms (fun () -> Greedy.flow g ~source ~sink) in
  let absorbed = List.assoc sink rooted_r.Prov.totals in
  if not (Float.equal absorbed greedy_v) then
    failwith
      (Printf.sprintf "provenance bench: prop-rooted absorbs %.17g but Greedy.flow is %.17g"
         absorbed greedy_v);
  let greedy_row =
    {
      name = "greedy-baseline";
      interactions = n;
      scan_ms = greedy_ms;
      inter_per_s = float_of_int n /. (greedy_ms /. 1000.0);
      spills = 0;
      peak_entries = 0;
    }
  in
  let results = open_world @ [ rooted; greedy_row ] in
  Table.print
    ~title:
      (Printf.sprintf "Provenance scan, %d interactions over %d vertices (budget %d)" n
         vertices Prov.default_budget)
    ~header:[ "Scenario"; "Scan ms"; "Inter/s"; "Overhead"; "Spills"; "Peak entries" ]
    (List.map
       (fun r ->
         [
           r.name;
           Printf.sprintf "%.1f" r.scan_ms;
           Printf.sprintf "%.0f" r.inter_per_s;
           Printf.sprintf "%.1fx" (r.scan_ms /. greedy_ms);
           string_of_int r.spills;
           string_of_int r.peak_entries;
         ])
       results);
  write_json json ~scale_name results;
  Printf.printf "Provenance benchmark written to %s\n" json
