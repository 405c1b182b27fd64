(* Pattern-search experiments: Tables 9-11 (GB vs PB).

   PB runs to completion (with the paper's 3000-instance cap on the
   LP-per-instance patterns P4/P6); GB gets a wall-clock budget, and
   when it cannot finish, the total time is extrapolated from its
   instance rate — the paper does the same ("15 days (est.)" for P5 on
   Bitcoin, early termination for the starred P4/P6 rows). *)

module Catalog = Tin_patterns.Catalog
module Tables = Tin_patterns.Tables
module Table = Tin_util.Table
module Timer = Tin_util.Timer

(* Patterns per dataset, as in the paper: P1/RP1 only where the chain
   table was precomputed (Prosper). *)
let patterns_for d =
  let with_chains = d.Workload.pattern_table_id = 11 in
  List.filter (fun p -> with_chains || not (Catalog.needs_chains p)) Catalog.all

let pattern_limit scale pattern =
  match pattern with
  | Catalog.Rigid (Catalog.P4 | Catalog.P6) -> scale.Workload.lp_pattern_limit
  | _ -> scale.Workload.gb_limit

let run_dataset scale d =
  let spec_name = d.Workload.spec.Tin_datasets.Spec.name in
  let with_chains = d.Workload.pattern_table_id = 11 in
  let gb_budget_ms = scale.Workload.gb_budget_ms in
  let tables, pre_ms =
    Timer.time_ms (fun () -> Catalog.precompute ~with_chains d.Workload.net)
  in
  let rows =
    List.map
      (fun pattern ->
        let limit = pattern_limit scale pattern in
        let pb, pb_ms =
          Timer.time_ms (fun () -> Catalog.pb ~limit d.Workload.net tables pattern)
        in
        let gb, gb_ms =
          Timer.time_ms (fun () ->
              Catalog.gb ~limit ~time_budget_ms:gb_budget_ms d.Workload.net pattern)
        in
        (* When neither search was cut short they must agree exactly. *)
        if
          (not gb.Catalog.truncated) && (not pb.Catalog.truncated)
          && gb.Catalog.instances <> pb.Catalog.instances
        then
          failwith
            (Printf.sprintf "GB/PB instance disagreement on %s/%s: %d vs %d" spec_name
               (Catalog.pattern_name pattern) gb.Catalog.instances pb.Catalog.instances);
        let gb_time =
          if gb.Catalog.timed_out && gb.Catalog.instances > 0 then
            (* Extrapolate from the instance rate, like the paper's
               "(est.)" entries. *)
            Table.fmt_ms
              (gb_ms *. float_of_int pb.Catalog.instances /. float_of_int gb.Catalog.instances)
            ^ " (est.)"
          else if gb.Catalog.timed_out then ">" ^ Table.fmt_ms gb_ms
          else Table.fmt_ms gb_ms
        in
        let star = if pb.Catalog.truncated then "*" else "" in
        [
          Catalog.pattern_name pattern ^ star;
          Table.fmt_count (float_of_int pb.Catalog.instances);
          Table.fmt_flow (Catalog.avg_flow pb);
          gb_time;
          Table.fmt_ms pb_ms;
        ])
      (patterns_for d)
  in
  Table.print
    ~title:
      (Printf.sprintf "Table %d: Pattern search on %s%s" d.Workload.pattern_table_id spec_name
         (if with_chains then " (incl. 2-hop chain table)" else ""))
    ~header:[ "Pattern"; "Instances"; "Average flow"; "GB"; "PB" ]
    rows;
  Printf.printf
    "  -> precomputation: %s (L2: %d rows, L3: %d rows%s); * = capped (P4/P6 at %d, like the paper's 3000)\n\n%!"
    (Table.fmt_ms pre_ms) (Tables.n_rows tables.Catalog.l2) (Tables.n_rows tables.Catalog.l3)
    (match tables.Catalog.c2 with
    | Some c2 -> Printf.sprintf ", chains: %d rows" (Tables.n_rows c2)
    | None -> "")
    scale.Workload.lp_pattern_limit
