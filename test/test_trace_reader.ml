(* The read side of observability: JSON parsing, trace round trips,
   percentile estimation from the fixed log buckets, run-diff verdict
   semantics, and the OpenMetrics exposition. Malformed input must
   surface as typed errors, never exceptions. *)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* -- Json: parse / render round trips and typed parse errors -- *)

let test_json_roundtrip () =
  (* Everything our emitters produce must survive parse -> to_string
     byte-identically: that is what makes canonicalization a pure
     field filter rather than a re-formatting pass. *)
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok v -> Alcotest.(check string) ("roundtrip " ^ s) s (Obs.Json.to_string v)
      | Error e ->
        Alcotest.fail (Printf.sprintf "%s: %s" s (Obs.Json.error_to_string e)))
    [ "{\"type\":\"span\",\"stage\":\"collect\",\"seq\":3,\"sim_start_s\":0,\"wall_ns\":12345}";
      "{\"a\":-1,\"b\":true,\"c\":false,\"d\":null}";
      "{\"s\":\"he said \\\"hi\\\"\\n\",\"f\":1.5}";
      "[1,2.5,\"x\",[],{}]";
      "{\"nested\":{\"deep\":[{\"k\":0}]}}" ]

let test_json_errors () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed but should not" s)
      | Error _ -> ())
    [ ""; "{"; "}"; "{\"a\":}"; "{\"a\":1,}"; "[1,"; "\"unterminated";
      "{\"a\":1} trailing"; "nul"; "+5"; "01x" ]

let test_json_numbers () =
  (* Ints stay Int (so re-render has no ".0"); fractions and exponents
     become Float. *)
  Alcotest.(check bool) "int" true (Obs.Json.parse "42" = Ok (Obs.Json.Int 42));
  Alcotest.(check bool) "negative int" true
    (Obs.Json.parse "-7" = Ok (Obs.Json.Int (-7)));
  Alcotest.(check bool) "float" true
    (Obs.Json.parse "2.5" = Ok (Obs.Json.Float 2.5));
  Alcotest.(check bool) "exponent" true
    (Obs.Json.parse "1e3" = Ok (Obs.Json.Float 1000.0))

let test_json_dup_keys () =
  (* Duplicate object keys are a parse error naming the key — never a
     silent first-wins or last-wins pick. The two artifacts we parse
     (manifests, BENCH.json) are generated with unique keys, so a
     duplicate always means a corrupt or hand-edited file. *)
  (match Obs.Json.parse {|{"a":1,"a":2}|} with
  | Ok _ -> Alcotest.fail "duplicate key parsed"
  | Error e ->
    Alcotest.(check bool) "error names the key" true
      (contains "duplicate object key \"a\"" (Obs.Json.error_to_string e)));
  (match Obs.Json.parse {|{"outer":{"k":1,"nested":0,"k":3}}|} with
  | Ok _ -> Alcotest.fail "nested duplicate key parsed"
  | Error e ->
    Alcotest.(check bool) "nested error names the key" true
      (contains "\"k\"" (Obs.Json.error_to_string e)));
  match Obs.Json.parse {|{"a":{"x":1},"b":{"x":2}}|} with
  | Ok _ -> () (* same key in sibling objects is fine *)
  | Error e -> Alcotest.fail (Obs.Json.error_to_string e)

let test_json_int_range () =
  (* Integer numerals that fit OCaml's int stay Int; anything past the
     63-bit range degrades to Float (losing low-bit precision), never
     wraps and never fails. *)
  Alcotest.(check bool) "max_int stays Int" true
    (Obs.Json.parse (string_of_int max_int) = Ok (Obs.Json.Int max_int));
  Alcotest.(check bool) "min_int stays Int" true
    (Obs.Json.parse (string_of_int min_int) = Ok (Obs.Json.Int min_int));
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok (Obs.Json.Float f) ->
        Alcotest.(check bool) (s ^ " magnitude preserved") true
          (Float.abs f > 4.6e18)
      | Ok v ->
        Alcotest.fail
          (Printf.sprintf "%s parsed as %s, expected Float" s (Obs.Json.to_string v))
      | Error e -> Alcotest.fail (Obs.Json.error_to_string e))
    [ "9223372036854775808"; "-9223372036854775809"; "18446744073709551616" ]

(* -- Trace_reader: typed errors, truncation tolerance, round trips -- *)

let span_line =
  "{\"type\":\"span\",\"stage\":\"collect\",\"vp\":\"vp-0\",\"seq\":0,\
   \"sim_start_s\":0,\"sim_end_s\":1.5,\"gc_minor_words\":880,\
   \"gc_major_words\":12,\"gc_compactions\":0,\"wall_ns\":123456}"

let test_parse_line () =
  (match Obs.Trace_reader.parse_line span_line with
  | Ok r ->
    Alcotest.(check string) "kind" "span" r.Obs.Trace_reader.kind;
    Alcotest.(check bool) "type field excluded" true
      (not (List.mem_assoc "type" r.Obs.Trace_reader.fields));
    Alcotest.(check string) "render roundtrip" span_line
      (Obs.Trace_reader.render r);
    let canon = Obs.Trace_reader.canonical r in
    Alcotest.(check bool) "canonical drops wall_ns" true
      (not (contains "wall_ns" canon));
    Alcotest.(check bool) "canonical drops gc fields" true
      (not (contains "gc_" canon));
    Alcotest.(check bool) "canonical keeps sim fields" true
      (contains "\"sim_end_s\":1.5" canon)
  | Error e -> Alcotest.fail (Obs.Trace_reader.err_label e));
  let expect_err name line =
    match Obs.Trace_reader.parse_line line with
    | Ok _ -> Alcotest.fail (name ^ ": parsed but should not")
    | Error _ -> ()
  in
  expect_err "garbage" "not json at all";
  expect_err "non-object" "[1,2,3]";
  expect_err "missing type" "{\"stage\":\"collect\"}";
  expect_err "non-string type" "{\"type\":7}"

let test_of_lines_tolerance () =
  (* Comments and blanks are skipped; a malformed FINAL line (crashed
     writer) is dropped and flagged; a malformed interior line is a
     typed error carrying its 1-based line number. *)
  (match Obs.Trace_reader.of_lines [ "# header"; ""; span_line; "  " ] with
  | Ok t ->
    Alcotest.(check int) "one record" 1 (List.length t.Obs.Trace_reader.records);
    Alcotest.(check bool) "not truncated" false t.Obs.Trace_reader.truncated
  | Error e -> Alcotest.fail (Obs.Trace_reader.error_to_string e));
  (match Obs.Trace_reader.of_lines [ span_line; "{\"type\":\"span\",\"st" ] with
  | Ok t ->
    Alcotest.(check int) "torn tail dropped" 1
      (List.length t.Obs.Trace_reader.records);
    Alcotest.(check bool) "truncated flagged" true t.Obs.Trace_reader.truncated
  | Error e -> Alcotest.fail (Obs.Trace_reader.error_to_string e));
  match Obs.Trace_reader.of_lines [ span_line; "garbage"; span_line ] with
  | Ok _ -> Alcotest.fail "interior garbage must be a hard error"
  | Error e -> Alcotest.(check int) "error names the line" 2 e.Obs.Trace_reader.line

(* A live round trip: spans emitted through the memory sink parse back
   loss-free (render is byte-identical), and the summary sees every
   span with GC deltas attributed. *)
let test_live_roundtrip () =
  let sink, drain = Obs.Span.memory_sink () in
  Obs.Span.set_sink (Some sink);
  Fun.protect
    ~finally:(fun () -> Obs.Span.close_sink ())
    (fun () ->
      Obs.Span.with_span ~stage:"outer" ~vp:"vp-7"
        ~sim:(fun () -> 2.0)
        (fun () ->
          Obs.Span.with_span ~stage:"inner" ~vp:"vp-7" (fun () ->
              ignore (Sys.opaque_identity (Array.make 4096 0.0)));
          Obs.Span.event ~kind:"heuristic_fire"
            [ ("heuristic", Obs.Span.S "ixp"); ("count", Obs.Span.I 3) ]));
  let lines = drain () in
  match Obs.Trace_reader.of_lines lines with
  | Error e -> Alcotest.fail (Obs.Trace_reader.error_to_string e)
  | Ok t ->
    Alcotest.(check (list string)) "render is byte-identical"
      lines
      (List.map Obs.Trace_reader.render t.Obs.Trace_reader.records);
    let sm = Obs.Trace_reader.summarize t in
    Alcotest.(check int) "two spans" 2 sm.Obs.Trace_reader.sm_spans;
    Alcotest.(check int) "three records" 3 sm.Obs.Trace_reader.sm_records;
    Alcotest.(check bool) "fires counted" true
      (sm.Obs.Trace_reader.sm_fires = [ ("ixp", 3) ]);
    (match sm.Obs.Trace_reader.sm_vps with
    | [ { Obs.Trace_reader.vg_vp = Some "vp-7"; vg_stages } ] ->
      (* inner finishes (and is emitted) before outer *)
      Alcotest.(check (list string)) "stages in emission order"
        [ "inner"; "outer" ]
        (List.map (fun s -> s.Obs.Trace_reader.ss_stage) vg_stages);
      let inner = List.hd vg_stages in
      (* A 4096-word array allocates directly on the major heap. *)
      Alcotest.(check bool) "allocation attributed to inner" true
        (inner.Obs.Trace_reader.ss_minor_words
         + inner.Obs.Trace_reader.ss_major_words
        > 0)
    | _ -> Alcotest.fail "expected one vp group for vp-7");
    let report = Obs.Trace_reader.report_lines ~volatile:false sm in
    Alcotest.(check bool) "canonical report has no wall column" true
      (not (List.exists (contains "wall") report))

(* Property: any span tree emitted through the sink parses back with a
   byte-identical render, a volatile-free canonical form, and a summary
   that accounts for every span exactly once. *)
type tree = Node of string * string option * tree list

let tree_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let stage = oneofl [ "alpha"; "beta"; "gamma"; "delta" ] in
        let vp = opt (oneofl [ "vp-0"; "vp-1" ]) in
        if n <= 0 then map (fun (s, v) -> Node (s, v, [])) (pair stage vp)
        else
          map3
            (fun s v kids -> Node (s, v, kids))
            stage vp
            (list_size (int_bound 3) (self (n / 4)))))

let rec count_nodes (Node (_, _, kids)) =
  1 + List.fold_left (fun a k -> a + count_nodes k) 0 kids

let prop_span_tree_roundtrip =
  QCheck.Test.make ~name:"span tree round trip" ~count:50
    (QCheck.make tree_gen) (fun tree ->
      let sink, drain = Obs.Span.memory_sink () in
      Obs.Span.set_sink (Some sink);
      let clock = ref 0.0 in
      let sim () = !clock in
      let rec emit (Node (stage, vp, kids)) =
        Obs.Span.with_span ~stage ?vp ~sim (fun () ->
            clock := !clock +. 1.0;
            List.iter emit kids)
      in
      Fun.protect ~finally:(fun () -> Obs.Span.close_sink ()) (fun () -> emit tree);
      let lines = drain () in
      match Obs.Trace_reader.of_lines lines with
      | Error e -> QCheck.Test.fail_report (Obs.Trace_reader.error_to_string e)
      | Ok t ->
        let sm = Obs.Trace_reader.summarize t in
        let stage_count =
          List.fold_left
            (fun acc vg ->
              List.fold_left
                (fun acc st -> acc + st.Obs.Trace_reader.ss_count)
                acc vg.Obs.Trace_reader.vg_stages)
            0 sm.Obs.Trace_reader.sm_vps
        in
        List.map Obs.Trace_reader.render t.Obs.Trace_reader.records = lines
        && (not t.Obs.Trace_reader.truncated)
        && sm.Obs.Trace_reader.sm_spans = count_nodes tree
        && stage_count = count_nodes tree
        && List.for_all
             (fun r ->
               let c = Obs.Trace_reader.canonical r in
               not (contains "wall_ns" c || contains "gc_" c))
             t.Obs.Trace_reader.records)

(* -- Summary: percentile estimation from the fixed log buckets -- *)

let get name = function
  | Some v -> v
  | None -> Alcotest.fail (name ^ " refused")

let test_summary_quantiles () =
  Alcotest.(check bool) "empty histogram has no quantiles" true
    (Obs.Summary.quantiles_of_buckets ~count:0 [] = None);
  (* 1000 observations of exactly 1.0 all land in one bucket (enough
     to support a p99): every percentile must stay inside that bucket's
     edges. *)
  let one_bucket = [ (1.0, 1000) ] in
  (match Obs.Summary.quantiles_of_buckets ~count:1000 one_bucket with
  | None -> Alcotest.fail "expected quantiles"
  | Some q ->
    let p50 = get "p50" q.Obs.Summary.p50
    and p90 = get "p90" q.Obs.Summary.p90
    and p99 = get "p99" q.Obs.Summary.p99 in
    List.iter
      (fun (name, v) ->
        Alcotest.(check bool) (name ^ " within bucket") true
          (v >= 1.0 && v <= Obs.Summary.bucket_upper 1.0))
      [ ("p50", p50); ("p90", p90); ("p99", p99); ("max", q.Obs.Summary.max_est) ];
    Alcotest.(check bool) "monotone" true
      (p50 <= p90 && p90 <= p99 && p99 <= q.Obs.Summary.max_est));
  (* 900 fast observations and 100 slow ones: p50 reads from the fast
     bucket, p99 from the slow one. *)
  let skewed = [ (0.001, 900); (100.0, 100) ] in
  match Obs.Summary.quantiles_of_buckets ~count:1000 skewed with
  | None -> Alcotest.fail "expected quantiles"
  | Some q ->
    Alcotest.(check bool) "p50 in fast bucket" true
      (get "p50" q.Obs.Summary.p50 <= Obs.Summary.bucket_upper 0.001);
    Alcotest.(check bool) "p99 in slow bucket" true (get "p99" q.Obs.Summary.p99 >= 100.0)

let with_hist values k =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.disable ())
    (fun () ->
      List.iter (Obs.Metrics.observe "lat") values;
      match List.assoc "lat" (Obs.Metrics.collect ()) with
      | Obs.Metrics.Histogram h -> k h
      | _ -> Alcotest.fail "expected a histogram")

let test_summary_of_hist () =
  with_hist (List.init 100 (fun i -> float_of_int (i + 1) /. 100.0)) (fun h ->
      match Obs.Summary.of_hist h with
      | None -> Alcotest.fail "expected quantiles"
      | Some q ->
        (* True p50 is 0.50; quarter-decade buckets bound the estimate
           within one bucket either side. *)
        let p50 = get "p50" q.Obs.Summary.p50 in
        Alcotest.(check bool) "p50 near 0.5" true (p50 > 0.2 && p50 < 1.0);
        Alcotest.(check bool) "100 samples support no p99" true
          (q.Obs.Summary.p99 = None);
        Alcotest.(check bool) "max within top bucket edge" true
          (q.Obs.Summary.max_est >= 1.0))

let test_summary_honest () =
  (* 1000 zero-length durations all sit in the underflow bucket: the
     median is below resolution, not an interpolated 5e-10. *)
  with_hist (List.init 1000 (fun _ -> 0.0)) (fun h ->
      match Obs.Summary.of_hist h with
      | None -> Alcotest.fail "a populated histogram has a summary"
      | Some q ->
        Alcotest.(check bool) "no p50 below resolution" true (q.Obs.Summary.p50 = None);
        Alcotest.(check bool) "no p99 below resolution" true (q.Obs.Summary.p99 = None));
  (* 15 samples leave fewer than ten beyond the p99 (and the p50). *)
  with_hist (List.init 15 (fun i -> float_of_int (i + 1))) (fun h ->
      match Obs.Summary.of_hist h with
      | None -> Alcotest.fail "a populated histogram has a summary"
      | Some q ->
        Alcotest.(check bool) "15 samples give no p99" true (q.Obs.Summary.p99 = None);
        Alcotest.(check bool) "15 samples give no p50" true (q.Obs.Summary.p50 = None));
  Alcotest.(check (list int)) "support per quantile" [ 20; 100; 1000 ]
    (List.map Obs.Summary.support [ 0.5; 0.9; 0.99 ])

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentiles stay within observed bucket range" ~count:100
    QCheck.(make Gen.(list_size (int_range 1 300) (float_bound_exclusive 1000.0)))
    (fun vs ->
      QCheck.assume (vs <> []);
      with_hist vs (fun h ->
          match Obs.Summary.of_hist h with
          | None -> false
          | Some q ->
            let lo_edge =
              match h.Obs.Metrics.h_buckets with
              | (lo, _) :: _ -> lo
              | [] -> 0.0
            in
            let hi_edge =
              Obs.Summary.bucket_upper
                (List.fold_left (fun _ (lo, _) -> lo) 0.0 h.Obs.Metrics.h_buckets)
            in
            (* Every percentile the samples support is ordered and
               inside the populated range. *)
            let present =
              List.filter_map Fun.id
                [ q.Obs.Summary.p50; q.Obs.Summary.p90; q.Obs.Summary.p99 ]
            in
            let rec ordered = function
              | a :: (b :: _ as rest) -> a <= b && ordered rest
              | _ -> true
            in
            ordered (present @ [ q.Obs.Summary.max_est ])
            && List.for_all (fun p -> p >= lo_edge) present
            && q.Obs.Summary.max_est <= hi_edge +. 1e-9
            && (List.length vs < 20 || q.Obs.Summary.p50 <> None
               || List.exists (fun v -> v <= 1e-9) vs)))

let test_summary_degenerate () =
  (* An inconsistent histogram — a positive observation count but no
     populated buckets (or vice versa) — yields None, never a division
     by zero or a fabricated quantile. *)
  Alcotest.(check bool) "count with no buckets" true
    (Obs.Summary.percentile_of_buckets ~count:20 [] 0.5 = None);
  Alcotest.(check bool) "count with all-zero buckets" true
    (Obs.Summary.percentile_of_buckets ~count:20 [ (1.0, 0); (10.0, 0) ] 0.5
    = None);
  Alcotest.(check bool) "zero count with populated buckets" true
    (Obs.Summary.percentile_of_buckets ~count:0 [ (1.0, 20) ] 0.5 = None);
  Alcotest.(check bool) "consistent histogram still answers" true
    (Obs.Summary.percentile_of_buckets ~count:20 [ (1.0, 20) ] 0.5 <> None)

(* -- Run_diff: verdict semantics over typed rows -- *)

let manifest ~wall ~sim =
  Printf.sprintf
    {|{"schema": "bdrmap-manifest/2", "command": "run", "scale": 0.15, "jobs": 1,
  "stages": {"collect": {"count": 1, "wall_s": %g, "sim_s": %g, "gc_minor_words": 500, "gc_major_words": 10, "gc_compactions": 0}},
  "metrics": {"probes.sent": 42, "probe.rtt_s": {"sum": 5.0, "count": 10, "p50": 0.4, "buckets": [[0.1, 10]]}},
  "trace_records": 7, "created_unix": 1700000000}|}
    wall sim

let load s =
  match Obs.Run_diff.of_string s with
  | Ok r -> r
  | Error e -> Alcotest.fail ("run_diff parse: " ^ Obs.Run_diff.error_to_string e)

let names (r : Obs.Run_diff.run) = List.map Obs.Run_diff.row_name r.rows

let test_diff_identical () =
  let a = load (manifest ~wall:0.1 ~sim:12.5) in
  Alcotest.(check bool) "manifest kind" true (a.Obs.Run_diff.kind = Obs.Run_diff.Manifest);
  Alcotest.(check bool) "stage and metric rows read" true
    (List.for_all
       (fun n -> List.mem n (names a))
       [ "stage.collect.wall_s"; "metric.probes.sent.value"; "metric.probe.rtt_s.p50";
         "run.trace_records" ]);
  Alcotest.(check bool) "created_unix not compared" true
    (not (List.exists (fun n -> contains "created_unix" n) (names a)));
  let findings = Obs.Run_diff.diff a a in
  Alcotest.(check bool) "identical runs produce no findings" true (findings = [])

let test_diff_wall_regression () =
  let a = load (manifest ~wall:0.1 ~sim:12.5) in
  let b = load (manifest ~wall:0.25 ~sim:12.5) in
  let failing = Obs.Run_diff.regressions (Obs.Run_diff.diff a b) in
  (match failing with
  | [ f ] ->
    Alcotest.(check string) "names the stage row" "stage.collect.wall_s"
      f.Obs.Run_diff.f_name;
    Alcotest.(check bool) "verdict" true (f.Obs.Run_diff.f_verdict = Obs.Run_diff.Regression)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 failing finding, got %d" (List.length fs)));
  (* The reverse direction is an improvement, not a failure. *)
  let back = Obs.Run_diff.diff b a in
  Alcotest.(check bool) "improvement is not failing" true
    (Obs.Run_diff.regressions back = []
    && List.exists
         (fun f -> f.Obs.Run_diff.f_verdict = Obs.Run_diff.Improvement)
         back)

let test_diff_unit_slack () =
  (* A 4x blow-up under the unit's absolute slack is scheduler jitter,
     not a regression. *)
  let a = load (manifest ~wall:0.001 ~sim:12.5) in
  let b = load (manifest ~wall:0.004 ~sim:12.5) in
  Alcotest.(check bool) "sub-slack jitter ignored" true
    (Obs.Run_diff.regressions (Obs.Run_diff.diff a b) = [])

let test_diff_deterministic_changed () =
  (* Exact rows must match exactly by default; --rel loosens. *)
  let a = load (manifest ~wall:0.1 ~sim:12.5) in
  let b = load (manifest ~wall:0.1 ~sim:13.0) in
  (match Obs.Run_diff.regressions (Obs.Run_diff.diff a b) with
  | [ f ] ->
    Alcotest.(check string) "names sim row" "stage.collect.sim_s" f.Obs.Run_diff.f_name;
    Alcotest.(check bool) "verdict changed" true
      (f.Obs.Run_diff.f_verdict = Obs.Run_diff.Changed)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  Alcotest.(check bool) "rel tolerance accepts it" true
    (Obs.Run_diff.regressions (Obs.Run_diff.diff ~rel:0.1 a b) = [])

let test_diff_missing () =
  let a = load (manifest ~wall:0.1 ~sim:12.5) in
  let b =
    load
      {|{"schema": "bdrmap-manifest/2", "scale": 0.15, "jobs": 1, "stages": {},
  "metrics": {}, "trace_records": 7}|}
  in
  let missing =
    List.filter
      (fun f -> f.Obs.Run_diff.f_verdict = Obs.Run_diff.Missing)
      (Obs.Run_diff.diff a b)
  in
  Alcotest.(check bool) "shrunk coverage is Missing (and failing)" true
    (missing <> [] && List.for_all Obs.Run_diff.failing missing)

(* A BENCH.json written by the bench's own renderer. *)
let bench rows =
  load
    (Obs.Run_diff.render_bench ~scale:0.1 ~domains:1
       (List.map
          (fun (workload, layer, metric, unit_, better, value) ->
            { Obs.Run_diff.workload; layer; metric; unit_; better; value; spread = 0.0 })
          rows))

let test_diff_bench_kind () =
  let r =
    bench
      [ ("experiment", "warm", "wall_s", "s", Obs.Run_diff.Lower, 1.5);
        ("corpus", "moas_storm", "links_pct", "%", Obs.Run_diff.Exact, 92.5) ]
  in
  Alcotest.(check bool) "bench kind" true (r.Obs.Run_diff.kind = Obs.Run_diff.Bench);
  Alcotest.(check (list string)) "rows read verbatim, after the run parameters"
    [ "run.scale"; "run.domains"; "experiment.warm.wall_s"; "corpus.moas_storm.links_pct" ]
    (names r);
  (match Obs.Run_diff.of_string {|{"schema": "bdrmap-bench/10", "scale": 0.1, "domains": 1,
  "experiments": [{"name": "warm", "wall_s": 1.5}]}|} with
  | Error (Obs.Run_diff.Unsupported_schema "bdrmap-bench/10") -> ()
  | Ok _ -> Alcotest.fail "a bdrmap-bench/10 file was accepted"
  | Error e -> Alcotest.fail ("wrong error: " ^ Obs.Run_diff.error_to_string e));
  (match Obs.Run_diff.of_string {|{"schema": "something-else/1"}|} with
  | Error (Obs.Run_diff.Unsupported_schema _) -> ()
  | _ -> Alcotest.fail "unknown schema accepted");
  match
    Obs.Run_diff.of_string
      {|{"schema": "bdrmap-bench/11", "scale": 0.1, "domains": 1,
  "rows": [{"workload": "a", "layer": "b", "metric": "c", "unit": "s", "better": "sideways", "value": 1, "spread": 0}]}|}
  with
  | Error (Obs.Run_diff.Malformed _) -> ()
  | _ -> Alcotest.fail "a row with an unknown direction was accepted"

let test_diff_serve_rows () =
  (* Throughput is higher-is-better and latency lower-is-better: a
     jittery re-run diffs clean, a throughput drop past the ratio is a
     Regression, and an exact row that differs is CHANGED. *)
  let serve ?(batch = 512.0) qps p99 =
    bench
      [ ("serve", "owner-batch512", "batch", "count", Obs.Run_diff.Exact, batch);
        ("serve", "owner-batch512", "qps", "1/s", Obs.Run_diff.Higher, qps);
        ("serve", "owner-batch512", "rtt_p99_us", "us", Obs.Run_diff.Lower, p99) ]
  in
  let a = serve 5e6 300.0 in
  Alcotest.(check bool) "jitter diffs clean" true
    (Obs.Run_diff.regressions (Obs.Run_diff.diff a (serve 4.5e6 340.0)) = []);
  (match Obs.Run_diff.regressions (Obs.Run_diff.diff a (serve 1e6 300.0)) with
  | [ f ] ->
    Alcotest.(check string) "names the qps row" "serve.owner-batch512.qps"
      f.Obs.Run_diff.f_name;
    Alcotest.(check bool) "a higher row that drops regresses" true
      (f.Obs.Run_diff.f_verdict = Obs.Run_diff.Regression)
  | fs ->
    Alcotest.fail (Printf.sprintf "expected 1 regression, got %d" (List.length fs)));
  (match Obs.Run_diff.regressions (Obs.Run_diff.diff a (serve 5e6 900.0)) with
  | [ f ] ->
    Alcotest.(check string) "a lower row that grows regresses"
      "serve.owner-batch512.rtt_p99_us" f.Obs.Run_diff.f_name
  | fs ->
    Alcotest.fail (Printf.sprintf "expected 1 regression, got %d" (List.length fs)));
  match Obs.Run_diff.regressions (Obs.Run_diff.diff a (serve ~batch:256.0 5e6 300.0)) with
  | [ f ] ->
    Alcotest.(check bool) "an exact row that differs is CHANGED" true
      (f.Obs.Run_diff.f_name = "serve.owner-batch512.batch"
      && f.Obs.Run_diff.f_verdict = Obs.Run_diff.Changed)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

let test_diff_spread () =
  (* A row's measured spread widens its slack: a move inside the
     quartile distance of its samples is not a regression. *)
  let churn wall spread =
    load
      (Obs.Run_diff.render_bench ~scale:0.1 ~domains:1
         [ { Obs.Run_diff.workload = "churn"; layer = "link_add"; metric = "incr_wall_s";
             unit_ = "s"; better = Obs.Run_diff.Lower; value = wall; spread } ])
  in
  Alcotest.(check bool) "inside the spread" true
    (Obs.Run_diff.regressions (Obs.Run_diff.diff (churn 0.01 0.02) (churn 0.03 0.02)) = []);
  Alcotest.(check bool) "beyond it" true
    (Obs.Run_diff.regressions (Obs.Run_diff.diff (churn 0.01 0.0) (churn 0.03 0.0)) <> [])

(* -- Openmetrics: exposition shape -- *)

let test_openmetrics () =
  match Obs.Openmetrics.of_string (manifest ~wall:0.1 ~sim:12.5) with
  | Error e -> Alcotest.fail e
  | Ok text ->
    List.iter
      (fun sub ->
        Alcotest.(check bool) ("exposition has " ^ sub) true (contains sub text))
      [ "bdrmap_run_info{schema=\"bdrmap-manifest/2\",command=\"run\"} 1";
        "bdrmap_stage_wall_s{stage=\"collect\"} 0.1";
        "bdrmap_stage_gc_minor_words{stage=\"collect\"} 500";
        "# TYPE bdrmap_probes_sent counter";
        "bdrmap_probes_sent_total 42";
        "# TYPE bdrmap_probe_rtt_s histogram";
        "bdrmap_probe_rtt_s_bucket{le=\"+Inf\"} 10";
        "bdrmap_probe_rtt_s_count 10" ];
    let eof = "# EOF\n" in
    Alcotest.(check bool) "ends with # EOF" true
      (String.length text >= String.length eof
      && String.sub text (String.length text - String.length eof)
           (String.length eof)
         = eof)

let suite =
  [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "json duplicate keys" `Quick test_json_dup_keys;
    Alcotest.test_case "json int range" `Quick test_json_int_range;
    Alcotest.test_case "parse_line" `Quick test_parse_line;
    Alcotest.test_case "of_lines tolerance" `Quick test_of_lines_tolerance;
    Alcotest.test_case "live roundtrip" `Quick test_live_roundtrip;
    Qc.to_alcotest prop_span_tree_roundtrip;
    Alcotest.test_case "summary quantiles" `Quick test_summary_quantiles;
    Alcotest.test_case "summary of_hist" `Quick test_summary_of_hist;
    Alcotest.test_case "summary degenerate histograms" `Quick
      test_summary_degenerate;
    Alcotest.test_case "summary honest percentiles" `Quick test_summary_honest;
    Qc.to_alcotest prop_percentile_bounds;
    Alcotest.test_case "diff identical" `Quick test_diff_identical;
    Alcotest.test_case "diff wall regression" `Quick test_diff_wall_regression;
    Alcotest.test_case "diff noise floor" `Quick test_diff_unit_slack;
    Alcotest.test_case "diff deterministic changed" `Quick test_diff_deterministic_changed;
    Alcotest.test_case "diff missing" `Quick test_diff_missing;
    Alcotest.test_case "diff bench kind" `Quick test_diff_bench_kind;
    Alcotest.test_case "diff serve rows" `Quick test_diff_serve_rows;
    Alcotest.test_case "diff spread" `Quick test_diff_spread;
    Alcotest.test_case "openmetrics exposition" `Quick test_openmetrics ]
