(* Observability layer: shard-merge determinism across pool sizes, the
   obs-off fast path, byte-identity of inference output under any obs
   configuration, and the trace's provenance invariants. *)

module Gen = Topogen.Gen

let with_metrics f =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.disable ())
    f

let test_metrics_basics () =
  with_metrics (fun () ->
      Obs.Metrics.add "a" 3;
      Obs.Metrics.incr "a";
      Obs.Metrics.observe "h" 5.0;
      Obs.Metrics.observe "h" 50.0;
      let ms = Obs.Metrics.collect () in
      Alcotest.(check int) "counter total" 4 (Obs.Metrics.find_counter ms "a");
      match List.assoc "h" ms with
      | Obs.Metrics.Histogram h ->
        Alcotest.(check int) "hist count" 2 h.Obs.Metrics.h_count;
        Alcotest.(check (float 1e-9)) "hist sum" 55.0 h.Obs.Metrics.h_sum;
        Alcotest.(check int) "two distinct buckets" 2
          (List.length h.Obs.Metrics.h_buckets)
      | _ -> Alcotest.fail "expected a histogram")

let test_buckets () =
  (* Every observed value lands in a bucket whose lower bound does not
     exceed it, and the bucket index is monotone in the value. *)
  let vs = [ 0.0; 1e-10; 1e-9; 0.5; 1.0; 3.0; 999.0; 1e5; 1e7 ] in
  List.iter
    (fun v ->
      let i = Obs.Metrics.bucket_of v in
      Alcotest.(check bool)
        (Printf.sprintf "lower bound of bucket(%g)" v)
        true
        (Obs.Metrics.bucket_lower i <= v +. 1e-15))
    vs;
  let idx = List.map Obs.Metrics.bucket_of vs in
  Alcotest.(check bool) "bucket index monotone" true
    (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 8) idx) (List.tl idx))

let test_bucket_boundaries () =
  (* Table-driven over every bucket boundary: an exact decade/quarter-
     decade boundary value belongs to the bucket it opens (the lower
     bound is inclusive), the float just below it to the previous one,
     the float just above stays put. log10's rounding error used to
     push exact boundaries one bucket off. 62 buckets: 0 catches
     <= 1e-9, 61 catches everything from its lower bound up — including
     infinity, which routes there explicitly. *)
  for i = 1 to 61 do
    let lo = Obs.Metrics.bucket_lower i in
    let expect_at = if i = 1 then 0 else i in
    (* bucket 1's lower bound is exactly the 1e-9 underflow cut *)
    Alcotest.(check int)
      (Printf.sprintf "bucket_of (bucket_lower %d)" i)
      expect_at
      (Obs.Metrics.bucket_of lo);
    Alcotest.(check int)
      (Printf.sprintf "bucket_of (pred (bucket_lower %d))" i)
      (i - 1)
      (Obs.Metrics.bucket_of (Float.pred lo));
    Alcotest.(check int)
      (Printf.sprintf "bucket_of (succ (bucket_lower %d))" i)
      i
      (Obs.Metrics.bucket_of (Float.succ lo))
  done;
  Alcotest.(check int) "nan" 0 (Obs.Metrics.bucket_of Float.nan);
  Alcotest.(check int) "zero" 0 (Obs.Metrics.bucket_of 0.0);
  Alcotest.(check int) "negative" 0 (Obs.Metrics.bucket_of (-5.0));
  Alcotest.(check int) "neg infinity" 0 (Obs.Metrics.bucket_of Float.neg_infinity);
  Alcotest.(check int) "infinity" 61 (Obs.Metrics.bucket_of Float.infinity);
  Alcotest.(check int) "max_float" 61 (Obs.Metrics.bucket_of Float.max_float)

let test_disabled_noop () =
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  Obs.Metrics.add "x" 5;
  Obs.Metrics.incr "x";
  Obs.Metrics.observe "z" 1.0;
  Alcotest.(check int) "nothing recorded while disabled" 0
    (List.length (Obs.Metrics.collect ()))

(* The same deterministic workload recorded through 1-domain and
   4-domain pools (different work distributions over shards) must merge
   to the same totals as a serial run. *)
let shard_workload pool =
  with_metrics (fun () ->
      let work i =
        Obs.Metrics.incr "w.count";
        Obs.Metrics.add "w.sum" i;
        Obs.Metrics.observe "w.hist" (float_of_int (1 + (i mod 7)));
        i
      in
      let items = List.init 48 (fun i -> i) in
      ignore
        (match pool with
        | None -> List.map work items
        | Some p -> Netcore.Pool.map p work items);
      Obs.Metrics.collect ())

let test_shard_merge_determinism () =
  let serial = shard_workload None in
  let pooled n =
    Netcore.Pool.with_pool ~domains:n (fun p -> shard_workload (Some p))
  in
  Alcotest.(check bool) "1-domain pool merges like serial" true
    (serial = pooled 1);
  Alcotest.(check bool) "4-domain pool merges like serial" true
    (serial = pooled 4);
  Alcotest.(check int) "count" 48 (Obs.Metrics.find_counter serial "w.count");
  Alcotest.(check int) "sum" (48 * 47 / 2) (Obs.Metrics.find_counter serial "w.sum")

let tiny_lines () =
  let w = Gen.generate Topogen.Scenario.tiny in
  let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
  let vp = List.hd w.Gen.vps in
  let r = Bdrmap.Pipeline.execute engine inputs ~vp in
  (Bdrmap.Output.links_to_lines r.Bdrmap.Pipeline.graph r.Bdrmap.Pipeline.inference, r)

(* The hard constraint of the layer: inference output is byte-identical
   whether observability is off, or fully on (metrics + trace sink). *)
let test_byte_identity_obs_on_off () =
  let off, _ = tiny_lines () in
  let on, r, trace =
    with_metrics (fun () ->
        let sink, drain = Obs.Span.memory_sink () in
        Obs.Span.set_sink (Some sink);
        Fun.protect
          ~finally:(fun () -> Obs.Span.close_sink ())
          (fun () ->
            let lines, r = tiny_lines () in
            (lines, r, drain ())))
  in
  Alcotest.(check (list string)) "border map identical obs on/off" off on;
  Alcotest.(check bool) "trace non-empty with sink" true (List.length trace > 0);
  (* Per-heuristic fire counts must sum to the number of owned routers:
     every decided router is attributed to exactly one heuristic. *)
  let owned =
    Array.fold_left
      (fun k o -> if o <> Bdrmap.Heuristics.Unknown then k + 1 else k)
      0 r.Bdrmap.Pipeline.inference.Bdrmap.Heuristics.owners
  in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let routers_traced =
    List.length (List.filter (contains "\"type\":\"router\"") trace)
  in
  Alcotest.(check int) "one provenance record per owned router" owned
    routers_traced

let test_fire_counts_sum () =
  with_metrics (fun () ->
      let _, r = tiny_lines () in
      let owned =
        Array.fold_left
          (fun k o -> if o <> Bdrmap.Heuristics.Unknown then k + 1 else k)
          0 r.Bdrmap.Pipeline.inference.Bdrmap.Heuristics.owners
      in
      let prefix = "heuristics.fire." in
      let fired =
        List.fold_left
          (fun acc (name, v) ->
            match v with
            | Obs.Metrics.Counter n
              when String.length name > String.length prefix
                   && String.sub name 0 (String.length prefix) = prefix ->
              acc + n
            | _ -> acc)
          0 (Obs.Metrics.collect ())
      in
      Alcotest.(check bool) "some routers owned" true (owned > 0);
      Alcotest.(check int) "fire counts sum to owned routers" owned fired)

let all_vp_lines pool =
  let w = Gen.generate Topogen.Scenario.tiny in
  let _shared, _fwd, _engine, inputs = Bdrmap.Pipeline.setup w in
  let runs = Bdrmap.Pipeline.execute_all ?pool w inputs ~vps:w.Gen.vps in
  List.concat_map
    (fun (r : Bdrmap.Pipeline.run) ->
      Bdrmap.Output.links_to_lines r.Bdrmap.Pipeline.graph
        r.Bdrmap.Pipeline.inference)
    runs

(* Volatile wall-clock and GC-delta counters are the only metrics
   allowed to differ between two runs of the same workload: allocation
   attribution shifts with pool overhead and domain distribution. *)
let stable_metrics ms =
  let has_suffix suffix name =
    let n = String.length name and m = String.length suffix in
    n >= m && String.sub name (n - m) m = suffix
  in
  let contains sub name =
    let n = String.length sub and m = String.length name in
    let rec go i = i + n <= m && (String.sub name i n = sub || go (i + 1)) in
    go 0
  in
  List.filter
    (fun (name, _) -> not (has_suffix ".wall_ns" name || contains ".gc_" name))
    ms

let test_multi_vp_j1_vs_j4 () =
  let run pool =
    with_metrics (fun () ->
        let lines = all_vp_lines pool in
        (lines, stable_metrics (Obs.Metrics.collect ())))
  in
  let lines1, ms1 = run None in
  let lines4, ms4 =
    Netcore.Pool.with_pool ~domains:4 (fun p -> run (Some p))
  in
  Alcotest.(check (list string)) "border maps identical -j1 vs -j4" lines1 lines4;
  Alcotest.(check bool) "metric totals identical -j1 vs -j4" true (ms1 = ms4)

let test_span_record_shape () =
  let sink, drain = Obs.Span.memory_sink () in
  Obs.Span.set_sink (Some sink);
  Fun.protect
    ~finally:(fun () -> Obs.Span.close_sink ())
    (fun () ->
      let r =
        Obs.Span.with_span ~stage:"demo" ~vp:"vp-test"
          ~sim:(fun () -> 1.5)
          (fun () -> 41 + 1)
      in
      Alcotest.(check int) "thunk result passed through" 42 r);
  match drain () with
  | [ line ] ->
    let starts_with p = String.length line >= String.length p
                        && String.sub line 0 (String.length p) = p in
    Alcotest.(check bool) "span record" true
      (starts_with "{\"type\":\"span\",\"stage\":\"demo\",\"vp\":\"vp-test\",");
    (* Volatile fields are stripped by name now, but wall_ns staying
       last keeps old traces and eyeball diffs tidy. *)
    let has_tail =
      match String.rindex_opt line ',' with
      | Some i ->
        String.length line - i > 11 && String.sub line (i + 1) 10 = "\"wall_ns\":"
      | None -> false
    in
    Alcotest.(check bool) "wall_ns is the last field" true has_tail
  | lines -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length lines))

(* A span's minor words count the whole current minor heap: 1000
   conses are 3000 words, whatever else the heap holds. *)
let test_span_minor_words () =
  with_metrics (fun () ->
      Obs.Span.with_span ~stage:"cons" (fun () ->
          let l = ref [] in
          for i = 1 to 1000 do
            l := Sys.opaque_identity (i :: !l)
          done;
          ignore (Sys.opaque_identity !l));
      let words =
        Obs.Metrics.find_counter (Obs.Metrics.collect ()) "stage.cons.gc_minor_words"
      in
      Alcotest.(check bool)
        (Printf.sprintf "1000 conses read %d >= 3000 minor words" words)
        true (words >= 3000))

let test_manifest_render () =
  let json =
    with_metrics (fun () ->
        Obs.Span.with_span ~stage:"demo" (fun () -> ());
        Obs.Manifest.render ~command:"test" ~scale:0.5 ~jobs:2 ~seed:7
          ~config:"command=test scale=0.5" ())
  in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub -> Alcotest.(check bool) ("manifest has " ^ sub) true (contains sub))
    [ "\"schema\": \"bdrmap-manifest/2\"";
      "\"command\": \"test\"";
      "\"seed\": 7";
      "\"jobs\": 2";
      "\"config_hash\": \"" ^ Digest.to_hex (Digest.string "command=test scale=0.5") ^ "\"";
      "\"demo\"" ]

let suite =
  [ Alcotest.test_case "metrics basics" `Quick test_metrics_basics;
    Alcotest.test_case "histogram buckets" `Quick test_buckets;
    Alcotest.test_case "bucket boundary table" `Quick test_bucket_boundaries;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "shard merge determinism" `Quick test_shard_merge_determinism;
    Alcotest.test_case "byte identity obs on/off" `Slow test_byte_identity_obs_on_off;
    Alcotest.test_case "fire counts sum" `Slow test_fire_counts_sum;
    Alcotest.test_case "multi-VP -j1 vs -j4" `Slow test_multi_vp_j1_vs_j4;
    Alcotest.test_case "span record shape" `Quick test_span_record_shape;
    Alcotest.test_case "span counts every minor word" `Quick test_span_minor_words;
    Alcotest.test_case "manifest render" `Quick test_manifest_render ]
