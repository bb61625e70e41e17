(* Post-hoc gates over a bench-quick BENCH.json, attached to the runtest
   alias. The artifact is read through the obs read side
   (Obs.Run_diff), so these gates and `bdrmap obs diff` agree on what a
   row is called and what it contains.

   Most gates are one line of the budget table below: a row selector
   and a bound. A budget whose rows are missing fails; it never passes
   vacuously. The few gates that relate rows of different layers (the
   snapshot-build accounting, histogram percentiles, the self-diff) are
   the structural checks after it. Every failing gate is reported as
   "check_bench: <gate>: <detail>" and the exit code is 1. *)

module R = Obs.Run_diff

type bound =
  | At_least of float
  | At_most of float
  | At_least_row of string  (** the same layer's row of this metric *)
  | At_most_row of string

type budget = {
  gate : string;
  workload : string;
  layer : string;  (** "*" selects every layer *)
  metric : string;
  bound : bound;
  min_rows : int;  (** fewer matching rows fails the gate *)
}

let budget ?(min_rows = 1) gate (workload, layer, metric) bound =
  { gate; workload; layer; metric; bound; min_rows }

let present = At_least 0.0

let budgets =
  [ (* The warm packed-snapshot query sweep reads only Bigarray words
       through the zero-allocation slot layer, so GC major-heap
       allocation beyond incidental noise (boxed floats from the Gc
       stat calls themselves) means the packed representation regressed
       to heap-visible storage. *)
    budget "warm_sweep_major_budget"
      ("experiment", "snapshot3-query-sweep-warm", "gc_major_words")
      (At_most 50_000.0);
    budget "snapshot3_freeze" ("experiment", "snapshot3-freeze", "gc_heap_words") present;
    (* The batch-512 server sustains several million lookups/sec on the
       bench box; the floor sits an order of magnitude below, so it
       catches a boxing bug or per-query allocation (10x-100x), not
       scheduler noise on a loaded CI machine. *)
    budget "serve_qps_floor" ("serve", "owner-batch512", "qps") (At_least 250_000.0);
    budget ~min_rows:2 "serve_queries" ("serve", "*", "queries") (At_least 1.0);
    budget ~min_rows:2 "serve_rtt_order" ("serve", "*", "rtt_p50_us")
      (At_most_row "rtt_p99_us");
    (* The server allocates a bounded constant per request (metrics
       recording) and the per-query path nothing, so one frame stays
       under this many minor words at both batch sizes. *)
    budget ~min_rows:2 "serve_frame_words_budget" ("serve", "*", "frame_minor_words")
      (At_most 100.0);
    (* A link add/remove dirties zero prefixes, so the incremental
       re-freeze does constant work where the full freeze re-propagates
       every route. 5x is the contract; the observed gap is far wider,
       so this catches a silent fall-back to a full recompute. *)
    budget "churn_speedup_floor" ("churn", "link_add", "speedup") (At_least 5.0);
    budget "churn_speedup_floor" ("churn", "link_remove", "speedup") (At_least 5.0);
    (* Every adversarial corpus scenario holds its recorded floors. *)
    budget ~min_rows:8 "corpus_link_floor" ("corpus", "*", "links_pct")
      (At_least_row "links_floor");
    budget ~min_rows:8 "corpus_router_floor" ("corpus", "*", "routers_pct")
      (At_least_row "routers_floor");
    (* Churn across epochs must not erode the inferred border map. *)
    budget "longitudinal_link_floor" ("longitudinal", "*", "links_pct") (At_least 60.0);
    (* Snapshot freeze was traced, and stage rows carry GC columns. *)
    budget "traced_freeze_stage" ("stage", "freeze", "count") (At_least 1.0);
    budget "stage_gc_columns" ("stage", "freeze", "gc_minor_words") present;
    budget "stage_gc_columns" ("stage", "freeze", "gc_major_words") present;
    budget "stage_gc_columns" ("stage", "freeze", "gc_compactions") present;
    budget "experiment_gc_columns" ("experiment", "*", "gc_minor_words") present;
    budget "experiment_gc_columns" ("experiment", "*", "gc_major_words") present;
    budget "experiment_gc_columns" ("experiment", "*", "gc_heap_words") present;
    budget "experiment_gc_columns" ("experiment", "*", "gc_compactions") present;
    budget "snapshot_builds" ("metric", "routing.snapshot.builds", "value")
      (At_least 1.0) ]

let find (run : R.run) ~workload ~layer ~metric =
  List.find_opt
    (fun (r : R.row) -> r.workload = workload && r.layer = layer && r.metric = metric)
    run.rows

let check_budget (run : R.run) b =
  let rows =
    List.filter
      (fun (r : R.row) ->
        r.workload = b.workload
        && (b.layer = "*" || r.layer = b.layer)
        && r.metric = b.metric)
      run.rows
  in
  if List.length rows < b.min_rows then
    [ Printf.sprintf "%d row(s) match %s.%s.%s, need %d" (List.length rows) b.workload
        b.layer b.metric b.min_rows ]
  else
    List.filter_map
      (fun (r : R.row) ->
        let at_least =
          match b.bound with At_least _ | At_least_row _ -> true | _ -> false
        in
        let limit =
          match b.bound with
          | At_least x | At_most x -> Some x
          | At_least_row metric | At_most_row metric ->
            Option.map
              (fun (s : R.row) -> s.value)
              (find run ~workload:r.workload ~layer:r.layer ~metric)
        in
        match limit with
        | None -> Some (R.row_name r ^ " has no row to compare with")
        | Some x when (if at_least then r.value >= x else r.value <= x) -> None
        | Some x ->
          Some
            (Printf.sprintf "%s = %g, not %s %g" (R.row_name r) r.value
               (if at_least then ">=" else "<=")
               x))
      rows

let structural (run : R.run) =
  let counter name =
    match find run ~workload:"metric" ~layer:name ~metric:"value" with
    | Some r -> int_of_float r.value
    | None -> 0
  in
  let builds = counter "routing.snapshot.builds"
  and attaches = counter "routing.snapshot.attaches"
  and sweeps = counter "pipeline.sweeps" + counter "pipeline.crossing_sweeps"
  and vp_computes = counter "pipeline.vp_computes" in
  let fail gate fmt = Printf.ksprintf (fun m -> Some (gate, m)) fmt in
  List.filter_map Fun.id
    [ (match R.regressions (R.diff run run) with
      | [] -> None
      | f :: _ ->
        fail "self_diff" "row %S does not diff clean against itself" f.R.f_name);
      (* The two standalone freezes (snapshot-freeze, snapshot3-freeze)
         are deliberate builds outside any sweep. *)
      (if builds > sweeps + 2 then
         fail "snapshot_rebuilt_per_worker"
           "%d snapshot builds for %d sweeps (+2 standalone freezes)" builds sweeps
       else None);
      (if vp_computes > 0 && attaches < vp_computes then
         fail "snapshot_attaches"
           "%d computed VPs but only %d snapshot attaches: a worker bypassed the \
            shared snapshot"
           vp_computes attaches
       else None);
      (* A histogram with the samples to support a median carries it. *)
      List.find_map
        (fun (r : R.row) ->
          if
            r.workload = "metric" && r.metric = "count"
            && r.value >= float_of_int (Obs.Summary.support 0.5)
            && find run ~workload:"metric" ~layer:r.layer ~metric:"p50" = None
          then
            fail "histogram_p50" "histogram %s has %g observations but no p50 row" r.layer
              r.value
          else None)
        run.rows ]

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH.json" in
  let failures =
    match R.of_file path with
    | Error e -> [ ("schema", path ^ ": " ^ R.error_to_string e) ]
    | Ok run when run.kind <> R.Bench -> [ ("schema", path ^ " is not a BENCH.json") ]
    | Ok run ->
      List.concat_map
        (fun b -> List.map (fun m -> (b.gate, m)) (check_budget run b))
        budgets
      @ structural run
  in
  List.iter (fun (gate, m) -> Printf.eprintf "check_bench: %s: %s\n" gate m) failures;
  if failures <> [] then exit 1;
  Printf.printf "check_bench: ok (%d budgets and 4 structural checks hold)\n"
    (List.length budgets)
