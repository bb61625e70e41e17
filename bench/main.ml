(* Benchmark harness: regenerates every table and figure from the paper's
   evaluation (one section per artifact), times each experiment's
   wall-clock, compares the multi-VP experiments at 1 vs N domains, and
   times the pipeline stages with bechamel.

   Scale with BDRMAP_BENCH_SCALE (default 1.0 = paper-sized scenarios;
   0.1-0.3 for a quick pass). Worker domains with BDRMAP_JOBS (default:
   Domain.recommended_domain_count). Every number also lands in a
   machine-readable BENCH.json (path override: BDRMAP_BENCH_OUT) so the
   perf trajectory can be tracked across changes. *)

open Bechamel
open Toolkit

let scale =
  match Sys.getenv_opt "BDRMAP_BENCH_SCALE" with
  | Some s -> (
    match float_of_string_opt s with
    | Some f when f > 0.0 -> f
    | _ -> 1.0)
  | None -> 1.0

let jobs =
  match Sys.getenv_opt "BDRMAP_JOBS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ -> max 1 (Domain.recommended_domain_count ()))
  | None -> max 1 (Domain.recommended_domain_count ())

let banner title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

(* Wall-clock + GC accounting per timed region, collected for
   BENCH.json. None of the reads walks the heap, so the measurement
   itself stays cheap; allocation volume is what the snapshot/plan
   sharing is supposed to cut, so it is tracked next to wall time. *)
type row = {
  r_name : string;
  r_wall_s : float;
  r_minor_words : float;
  r_major_words : float;
  r_heap_words : float;  (* resident major-heap words when the region ends *)
  r_compactions : int;
}

let wall_times : row list ref = ref []

(* Words allocated so far, (minor, major). On OCaml 5.1 [Gc.quick_stat]
   leaves out the current minor heap (a 1000-cons loop reads 0 minor
   words) and the major words since the last slice, and
   [Gc.counters]'s minor count takes the current minor heap at an
   eighth (the same loop reads 376); [Gc.minor_words] and
   [Gc.counters]'s major count are exact. [Gc.quick_stat] still
   supplies heap size and compactions. *)
let alloc_words () =
  let _, _, major = Gc.counters () in
  (Gc.minor_words (), major)

let timed name f =
  let g0 = Gc.quick_stat () in
  let minor0, major0 = alloc_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let minor1, major1 = alloc_words () in
  let g1 = Gc.quick_stat () in
  wall_times :=
    { r_name = name;
      r_wall_s = dt;
      r_minor_words = minor1 -. minor0;
      r_major_words = major1 -. major0;
      r_heap_words = float_of_int g1.Gc.heap_words;
      r_compactions = g1.Gc.compactions - g0.Gc.compactions }
    :: !wall_times;
  Printf.printf "[%s: %.2fs]\n%!" name dt;
  r

let experiments pool =
  banner
    (Printf.sprintf "bdrmap evaluation reproduction (scale %.2f, %d domains)" scale
       jobs);
  banner "Table 1 (5.7): BGP coverage and heuristic breakdown";
  timed "table1" (fun () ->
      Experiments.Exp_table1.print Format.std_formatter
        (Experiments.Exp_table1.run ~scale ()));
  banner "5.6: validation against ground truth";
  timed "validation" (fun () ->
      Experiments.Exp_validation.print Format.std_formatter
        (Experiments.Exp_validation.run ~scale ()));
  banner "Figure 14: border router / next-hop AS diversity";
  timed "fig14" (fun () ->
      Experiments.Exp_fig14.print Format.std_formatter
        (Experiments.Exp_fig14.run ~scale ?pool ()));
  banner "Figure 15: marginal utility of VPs";
  timed "fig15" (fun () ->
      Experiments.Exp_fig15.print Format.std_formatter
        (Experiments.Exp_fig15.run ~scale ?pool ()));
  banner "Figure 16: VP geography vs observed links";
  timed "fig16" (fun () ->
      Experiments.Exp_fig16.print Format.std_formatter
        (Experiments.Exp_fig16.run ~scale ?pool ()));
  banner "5.3: run-time and stop-set ablation";
  timed "runtime" (fun () ->
      Experiments.Exp_runtime.print Format.std_formatter
        (Experiments.Exp_runtime.run ~scale ()));
  banner "5.8: resource-limited deployment";
  timed "resource" (fun () ->
      match Experiments.Exp_resource.run ~scale ?pool () with
      | Ok t -> Experiments.Exp_resource.print Format.std_formatter t
      | Error e -> failwith (Experiments.Exp_resource.error_to_string e));
  banner "Baseline comparison (3)";
  timed "baselines" (fun () ->
      Experiments.Exp_baselines.print Format.std_formatter
        (Experiments.Exp_baselines.run ~scale ()));
  banner "Design ablations";
  timed "ablation" (fun () ->
      Experiments.Exp_ablation.print Format.std_formatter
        (Experiments.Exp_ablation.run ~scale ()))

(* Robustness sweep: accuracy under injected measurement faults, one row
   per impairment level. Rows are kept for BENCH.json so accuracy-vs-
   impairment is tracked across changes like wall-clock is. *)
let robustness_rows : Experiments.Exp_robustness.row list ref = ref []

let robustness () =
  banner "Robustness: accuracy under injected measurement faults";
  timed "robustness" (fun () ->
      let rows = Experiments.Exp_robustness.run ~scale () in
      robustness_rows := rows;
      Experiments.Exp_robustness.print Format.std_formatter rows)

(* Adversarial corpus: accuracy on the named hostile worlds, one row
   per scenario with its recorded floor. check_bench fails the build if
   any scenario drops below its floor — inference quality is gated the
   same way wall-clock regressions are. *)
let corpus_rows : Experiments.Exp_corpus.row list ref = ref []

let corpus () =
  banner "Adversarial corpus: accuracy floors on hostile worlds";
  timed "corpus" (fun () ->
      let rows = Experiments.Exp_corpus.run ~scale () in
      corpus_rows := rows;
      Experiments.Exp_corpus.print Format.std_formatter rows)

(* Temporal churn: each event class forced onto a fixed scale-1 world
   (independent of BDRMAP_BENCH_SCALE so the rows are comparable across
   runs), timing the evolved world's full re-freeze (scratch snapshot +
   scratch forwarding plan) against the incremental path (Bgp.refreeze
   + Forwarding.patch). Steps chain on one world, each patching the
   previous snapshot, like the epoch loop does. All freezes here count
   under a scratch counter so the builds-per-sweep accounting gate
   stays meaningful. check_bench holds the single-link classes to a
   >= 5x speedup — the headline contract of the incremental path. *)
type churn_row = {
  c_name : string;
  c_full_wall_s : float;
  c_incr_wall_s : float;
  c_dirty : int;
  c_total : int;
  c_full_minor : float;
  c_full_major : float;
  c_incr_minor : float;
  c_incr_major : float;
}

let churn_rows : churn_row list ref = ref []

let churn_bench () =
  banner "Temporal churn: full re-freeze vs incremental (scale 1)";
  let module Evolve = Topogen.Evolve in
  let module Bgp = Routing.Bgp in
  let module Fwd = Routing.Forwarding in
  let fresh_bgp (w : Topogen.Gen.world) =
    Bgp.create w.Topogen.Gen.net w.Topogen.Gen.rels_truth
      ~originated:(Topogen.Gen.originated w) ~selective:w.Topogen.Gen.selective
  in
  (* Each side runs five times and reports its median wall time (GC
     columns from the first run). A single-link re-freeze takes about a
     millisecond and a scratch freeze of this world tens of them, so
     with one sample a single scheduler preemption, e.g. while
     `dune runtest` runs other actions, decided the ratio. *)
  let timed_gc f =
    let wall f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let minor0, major0 = alloc_words () in
    let r, dt = wall f in
    let minor1, major1 = alloc_words () in
    let walls = dt :: List.init 4 (fun _ -> snd (wall f)) in
    (r, List.nth (List.sort Float.compare walls) 2, minor1 -. minor0, major1 -. major0)
  in
  let w0 =
    Topogen.Gen.generate (Topogen.Scenario.small_access ~scale:1.0 ())
  in
  let world = ref w0 in
  let snap =
    ref (Bgp.freeze ~counter:"routing.snapshot.scratch_builds" (fresh_bgp w0))
  in
  let plan =
    ref
      (Fwd.freeze ~egress_for:w0.Topogen.Gen.siblings
         (Fwd.create w0.Topogen.Gen.net (Bgp.of_snapshot !snap)))
  in
  let force_kind kind w =
    let rec go seed =
      if seed > 50 then None
      else
        match Evolve.force ~seed kind w with
        | Some r -> Some r
        | None -> go (seed + 1)
    in
    go 1
  in
  List.iter
    (fun kind ->
      let label = Evolve.kind_label kind in
      match force_kind kind !world with
      | None -> Printf.printf "%-14s no eligible site; skipped\n%!" label
      | Some (w', te) ->
        world := w';
        let churn = Bgp.churn_of_events [ te ] in
        let scratch_plan, fw, fmin, fmaj =
          timed_gc (fun () ->
              let s =
                Bgp.freeze ~counter:"routing.snapshot.scratch_builds"
                  (fresh_bgp w')
              in
              let p =
                Fwd.freeze ~egress_for:w'.Topogen.Gen.siblings
                  (Fwd.create w'.Topogen.Gen.net (Bgp.of_snapshot s))
              in
              (s, p))
        in
        let (patched, stats, pplan), iw, imin, imaj =
          timed_gc (fun () ->
              let s, stats = Bgp.refreeze (fresh_bgp w') ~old:!snap churn in
              let p =
                Fwd.patch ~egress_for:w'.Topogen.Gen.siblings
                  (Fwd.create w'.Topogen.Gen.net (Bgp.of_snapshot s))
                  ~old:!plan ~churn ~dirty:stats.Bgp.rf_dirty_prefixes
              in
              (s, stats, p))
        in
        (let sscratch, pscratch = scratch_plan in
         (match Bgp.Snapshot.equal sscratch patched with
         | Ok () -> ()
         | Error m ->
           Printf.printf "WARNING: %s incremental snapshot diverged: %s\n%!"
             label m);
         match Fwd.plan_equal ~scratch:pscratch ~patched:pplan with
         | Ok () -> ()
         | Error m ->
           Printf.printf "WARNING: %s incremental plan diverged: %s\n%!" label
             m);
        snap := patched;
        plan := pplan;
        Printf.printf
          "%-14s full %.4fs  incremental %.4fs  (%.1fx, %d/%d dirty)\n%!"
          label fw iw
          (fw /. Float.max 1e-9 iw)
          stats.Bgp.rf_dirty stats.Bgp.rf_total;
        churn_rows :=
          { c_name = label;
            c_full_wall_s = fw;
            c_incr_wall_s = iw;
            c_dirty = stats.Bgp.rf_dirty;
            c_total = stats.Bgp.rf_total;
            c_full_minor = fmin;
            c_full_major = fmaj;
            c_incr_minor = imin;
            c_incr_major = imaj
          }
          :: !churn_rows)
    Evolve.all_kinds

(* Longitudinal drift: the epoch loop at a fixed scale 0.3, one row per
   epoch with inferred-map accuracy against the evolved ground truth.
   check_bench holds every epoch's link accuracy above the recorded
   floor — churn must not quietly erode inference quality. *)
let longitudinal_links_floor = 60.0
let longitudinal_rows : Experiments.Exp_longitudinal.row list ref = ref []

let longitudinal () =
  banner "Longitudinal: border-map drift under temporal churn (scale 0.3)";
  timed "longitudinal" (fun () ->
      let rows = Experiments.Exp_longitudinal.run ~scale:0.3 () in
      longitudinal_rows := rows;
      Experiments.Exp_longitudinal.print Format.std_formatter rows)

(* The multi-VP experiments again, serial vs pooled, on a warm
   environment (the world/engine cache makes the comparison about the
   per-VP sweep, not world generation). *)
let parallel_comparison pool =
  banner (Printf.sprintf "Multi-VP wall-clock: 1 vs %d domains" jobs);
  timed "fig14-j1" (fun () -> ignore (Experiments.Exp_fig14.run ~scale ()));
  timed (Printf.sprintf "fig14-j%d" jobs) (fun () ->
      ignore (Experiments.Exp_fig14.run ~scale ?pool ()));
  timed "fig15-j1" (fun () -> ignore (Experiments.Exp_fig15.run ~scale ()));
  timed (Printf.sprintf "fig15-j%d" jobs) (fun () ->
      ignore (Experiments.Exp_fig15.run ~scale ?pool ()))

(* Cold vs warm persistent run store on the same experiment: the cold
   pass computes every per-VP artifact and checkpoints it; the warm
   pass deserializes instead of recomputing. Both run against the warm
   world/engine cache, so the delta is the store's, not generation's.
   fig16 exercises the crossing-link sweep cache, resource the full
   per-VP pipeline snapshot path. The store's hit/miss/byte counters
   land in the metrics block below. *)
let store_comparison pool =
  banner "Persistent run store: cold vs warm";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bdrmap-bench-store-%d" (Unix.getpid ()))
  in
  let store = Store.open_dir dir in
  Fun.protect
    ~finally:(fun () ->
      ignore (Store.gc ~all:true store : Store.gc_stats);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      timed "fig16-cold-store" (fun () ->
          ignore (Experiments.Exp_fig16.run ~scale ?pool ~store ()));
      timed "fig16-warm-store" (fun () ->
          ignore (Experiments.Exp_fig16.run ~scale ?pool ~store ()));
      timed "resource-cold-store" (fun () ->
          ignore (Experiments.Exp_resource.run ~scale ?pool ~store ()));
      timed "resource-warm-store" (fun () ->
          ignore (Experiments.Exp_resource.run ~scale ?pool ~store ())))

(* Cold vs warm shared routing snapshot on a full multi-VP pipeline
   sweep: the cold pass freezes inside [execute_all]; the warm pass is
   handed a prebuilt snapshot + plan, so its rows isolate the pure
   per-VP cost the sharing leaves behind. The freeze itself is timed
   separately. *)
let snapshot_comparison () =
  banner "Shared routing snapshot: cold vs warm";
  let env =
    Experiments.Exp_common.make (Topogen.Scenario.small_access ~scale ())
  in
  let w = env.Experiments.Exp_common.world in
  let inputs = env.Experiments.Exp_common.inputs in
  let vps = w.Topogen.Gen.vps in
  let n_vps = List.length vps in
  let shared =
    timed "snapshot-freeze" (fun () -> Bdrmap.Pipeline.freeze_routing w)
  in
  timed "sweep-cold-snapshot" (fun () ->
      ignore (Bdrmap.Pipeline.execute_all w inputs ~vps));
  timed "sweep-warm-snapshot" (fun () ->
      ignore (Bdrmap.Pipeline.execute_all ~shared w inputs ~vps));
  match !wall_times with
  | warm :: cold :: _ ->
    Printf.printf "per-VP (%d VPs): cold %.3fs, warm %.3fs\n%!" n_vps
      (cold.r_wall_s /. float_of_int n_vps)
      (warm.r_wall_s /. float_of_int n_vps)
  | _ -> ()

(* Packed snapshot at a fixed scale-3 world (10x-class), independent of
   BDRMAP_BENCH_SCALE so the rows are comparable across runs: freeze
   wall-clock + resident words, then a cold and a warm full
   (prefix x ASN) query sweep over the packed words. The warm sweep
   reads only Bigarray words through the zero-allocation slot layer, so
   check_bench holds its GC major-words delta to a near-zero budget —
   the regression gate for the arena staying GC-invisible. *)
let scale3_snapshot () =
  banner "Packed routing snapshot at scale 3";
  let w =
    timed "snapshot3-world" (fun () ->
        Topogen.Gen.generate (Topogen.Scenario.small_access ~scale:3.0 ()))
  in
  let shared =
    timed "snapshot3-freeze" (fun () -> Bdrmap.Pipeline.freeze_routing w)
  in
  let snap = shared.Bdrmap.Pipeline.snapshot in
  let module S = Routing.Bgp.Snapshot in
  let np = S.prefix_count snap and na = S.asn_count snap in
  Printf.printf "snapshot: %d prefixes x %d ASNs, arena %d words\n%!" np na
    (S.arena_length snap);
  let sweep () =
    let total = ref 0 in
    for pslot = 0 to np - 1 do
      for aslot = 0 to na - 1 do
        let word = S.word snap ~pslot ~aslot in
        if word <> 0 then total := !total + S.word_dist word
      done
    done;
    !total
  in
  let cold = timed "snapshot3-query-sweep" sweep in
  let warm = timed "snapshot3-query-sweep-warm" sweep in
  if cold <> warm then
    Printf.printf "WARNING: sweep checksum drifted (%d vs %d)\n%!" cold warm;
  Printf.printf "query sweep checksum %d over %d words\n%!" warm (np * na)

(* Query-server throughput over the merged border map, at a fixed
   scale-0.15 small_access world (independent of BDRMAP_BENCH_SCALE so
   the rows are comparable across runs): the all-VP inference is
   merged, packed into a map artifact, indexed into a query map, and
   the load generator drives batched owner lookups over a Unix-domain
   socket against a server on its own domain. The batch-512 row is the
   throughput headline; the batch-1 row is per-frame round-trip
   latency. check_bench gates sustained qps, p50 <= p99 ordering, and
   the steady-state minor-GC words per query staying near zero — the
   regression gate for the query hot loop staying allocation-free. *)
let serve_rows : Serve.Bench_load.result list ref = ref []

let serve_bench () =
  banner "Query server: batched owner lookups over the merged border map";
  let qmap =
    timed "serve-build" (fun () ->
        let w =
          Topogen.Gen.generate (Topogen.Scenario.small_access ~scale:0.15 ())
        in
        let shared = Bdrmap.Pipeline.freeze_routing w in
        let snapshot = shared.Bdrmap.Pipeline.snapshot in
        let bgp = Routing.Bgp.of_snapshot snapshot in
        let inputs = Bdrmap.Pipeline.inputs_of_world w bgp in
        let vps = w.Topogen.Gen.vps in
        let runs = Bdrmap.Pipeline.execute_all ~shared w inputs ~vps in
        let merged =
          Bdrmap.Aggregate.merge_runs
            (List.map2
               (fun (vp : Topogen.Gen.vp) (r : Bdrmap.Pipeline.run) ->
                 ( vp.Topogen.Gen.vp_name,
                   r.Bdrmap.Pipeline.graph,
                   r.Bdrmap.Pipeline.inference ))
               vps runs)
        in
        let mapfile =
          Bdrmap.Mapfile.make ~host_asns:w.Topogen.Gen.siblings ~bgp merged
        in
        Serve.Qmap.build ~snapshot mapfile)
  in
  List.iter
    (fun batch ->
      let r = Serve.Bench_load.run ~batch ~seconds:0.5 qmap in
      Serve.Bench_load.print Format.std_formatter r;
      serve_rows := r :: !serve_rows)
    [ 512; 1 ]

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks of the pipeline stages.                            *)

module Gen = Topogen.Gen
open Netcore

let micro_env =
  lazy
    (let world = Gen.generate Topogen.Scenario.tiny in
     let shared, fwd, engine, inputs = Bdrmap.Pipeline.setup world in
     let bgp = shared.Bdrmap.Pipeline.snapshot in
     let vp = List.hd world.vps in
     let run = Bdrmap.Pipeline.execute engine inputs ~vp in
     (world, bgp, fwd, engine, inputs, vp, run))

let test_ptrie_lpm =
  Test.make ~name:"ptrie-lpm"
    (Staged.stage (fun () ->
         let _, _, _, _, inputs, _, _ = Lazy.force micro_env in
         ignore (Bgpdata.Rib.origin_asns inputs.rib (Ipv4.of_string_exn "1.40.0.77"))))

let test_targets =
  Test.make ~name:"target-blocks"
    (Staged.stage (fun () ->
         let _, _, _, _, inputs, _, _ = Lazy.force micro_env in
         ignore (Bdrmap.Targets.blocks ~rib:inputs.rib ~vp_asns:inputs.vp_asns)))

let test_bgp_route =
  Test.make ~name:"bgp-route-lookup"
    (Staged.stage (fun () ->
         let _, bgp, _, _, _, _, _ = Lazy.force micro_env in
         let prefixes = Routing.Bgp.prefixes bgp in
         let p = List.nth prefixes (List.length prefixes / 2) in
         ignore (Routing.Bgp.route bgp 64500 p)))

(* A scratch freeze of the micro world's routing: the slot kernel over
   every originated prefix plus packing into the arenas. Each run starts
   from a fresh propagation input, so the kernel's adjacency build is
   timed too. *)
let test_bgp_freeze =
  Test.make ~name:"bgp-freeze"
    (Staged.stage (fun () ->
         let world, _, _, _, _, _, _ = Lazy.force micro_env in
         ignore
           (Routing.Bgp.freeze ~counter:"routing.snapshot.scratch_builds"
              (Routing.Bgp.create world.Gen.net world.Gen.rels_truth
                 ~originated:(Gen.originated world) ~selective:world.Gen.selective))))

let test_forwarding_path =
  Test.make ~name:"forwarding-path"
    (Staged.stage (fun () ->
         let _, _, fwd, _, _, vp, _ = Lazy.force micro_env in
         ignore
           (Routing.Forwarding.path fwd ~src_rid:vp.Gen.vp_rid
              ~dst:(Ipv4.of_string_exn "1.40.0.77") ())))

let test_traceroute =
  Test.make ~name:"engine-traceroute"
    (Staged.stage (fun () ->
         let _, _, _, engine, _, vp, _ = Lazy.force micro_env in
         ignore (Probesim.Engine.traceroute engine ~vp ~dst:(Ipv4.of_string_exn "1.40.0.77") ())))

let test_heuristics =
  Test.make ~name:"heuristics-infer"
    (Staged.stage (fun () ->
         let _, _, _, _, inputs, _, run = Lazy.force micro_env in
         ignore
           (Bdrmap.Heuristics.infer run.Bdrmap.Pipeline.cfg run.Bdrmap.Pipeline.ip2as
              ~rels:inputs.rels run.Bdrmap.Pipeline.graph run.Bdrmap.Pipeline.collection)))

let test_rgraph_build =
  Test.make ~name:"rgraph-build"
    (Staged.stage (fun () ->
         let _, _, _, _, _, _, run = Lazy.force micro_env in
         ignore (Bdrmap.Rgraph.build run.Bdrmap.Pipeline.collection)))

let test_rel_infer =
  Test.make ~name:"rel-infer"
    (Staged.stage (fun () ->
         let _, _, _, _, inputs, _, _ = Lazy.force micro_env in
         ignore (Bgpdata.Rel_infer.infer (Bgpdata.Rib.all_paths inputs.rib))))

let test_ally =
  Test.make ~name:"ally-trial"
    (Staged.stage (fun () ->
         let c = ref 0 in
         let sampler _ =
           incr c;
           Some (!c land 0xFFFF)
         in
         ignore
           (Aliasres.Ally.trial sampler (Ipv4.of_string_exn "10.0.0.1")
              (Ipv4.of_string_exn "10.0.0.2") ~samples:4)))

let test_aggregate_merge =
  Test.make ~name:"aggregate-merge"
    (Staged.stage (fun () ->
         let _, _, _, _, _, vp, run = Lazy.force micro_env in
         let vl =
           Bdrmap.Aggregate.of_run vp.Gen.vp_name run.Bdrmap.Pipeline.graph
             run.Bdrmap.Pipeline.inference
         in
         ignore (Bdrmap.Aggregate.merge [ vl; { vl with vp_name = "vp2" } ])))

(* Micro-benchmark estimates collected for BENCH.json: (name, ns/run). *)
let micro_times : (string * float) list ref = ref []

(* Metrics snapshot for BENCH.json, taken after the experiment sweeps
   and before the micro-benchmarks — the micro loops would both inflate
   the pipeline counters and pay the recording cost inside the timed
   region. *)
let obs_snapshot : (string * Obs.Metrics.value) list ref = ref []

let snapshot_obs () =
  obs_snapshot := Obs.Metrics.collect ();
  Obs.Metrics.disable ()

let micro () =
  banner "Micro-benchmarks (bechamel)";
  (* Force shared state before timing. *)
  ignore (Lazy.force micro_env);
  let tests =
    [ test_ptrie_lpm; test_targets; test_bgp_route; test_bgp_freeze; test_forwarding_path;
      test_traceroute; test_rgraph_build; test_heuristics; test_rel_infer;
      test_ally; test_aggregate_merge ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
            micro_times := (name, est) :: !micro_times;
            Printf.printf "%-24s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "%-24s (no estimate)\n%!" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* BENCH.json: the machine-readable record of this run.                *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_bench_json path =
  let oc = open_out path in
  let item fmt (name, v) = Printf.sprintf fmt (json_escape name) v in
  let block key fmt entries =
    Printf.sprintf "  %S: [\n%s\n  ]" key
      (String.concat ",\n" (List.map (fun e -> "    " ^ item fmt e) entries))
  in
  let experiments_block =
    let row r =
      Printf.sprintf
        "    {\"name\": \"%s\", \"wall_s\": %.6f, \"gc_minor_words\": %.0f, \
         \"gc_major_words\": %.0f, \"gc_heap_words\": %.0f, \
         \"gc_compactions\": %d}"
        (json_escape r.r_name) r.r_wall_s r.r_minor_words r.r_major_words
        r.r_heap_words r.r_compactions
    in
    Printf.sprintf "  \"experiments\": [\n%s\n  ]"
      (String.concat ",\n" (List.map row (List.rev !wall_times)))
  in
  let robustness_block =
    let row (r : Experiments.Exp_robustness.row) =
      Printf.sprintf
        "    {\"intensity\": %g, \"links_pct\": %.2f, \"routers_pct\": %.2f, \
         \"coverage_pct\": %.2f, \"probes\": %d, \"overhead_pct\": %.2f}"
        r.Experiments.Exp_robustness.intensity
        r.Experiments.Exp_robustness.links.Bdrmap.Validate.pct_correct
        r.Experiments.Exp_robustness.routers.Bdrmap.Validate.pct_correct
        r.Experiments.Exp_robustness.coverage_pct
        r.Experiments.Exp_robustness.probes
        r.Experiments.Exp_robustness.overhead_pct
    in
    Printf.sprintf "  \"robustness\": [\n%s\n  ]"
      (String.concat ",\n" (List.map row !robustness_rows))
  in
  let corpus_block =
    let row (r : Experiments.Exp_corpus.row) =
      Printf.sprintf
        "    {\"scenario\": \"%s\", \"links_pct\": %.2f, \"links_floor\": %.2f, \
         \"routers_pct\": %.2f, \"routers_floor\": %.2f, \"coverage_pct\": %.2f, \
         \"probes\": %d}"
        (json_escape r.Experiments.Exp_corpus.name)
        r.Experiments.Exp_corpus.links.Bdrmap.Validate.pct_correct
        r.Experiments.Exp_corpus.link_floor
        r.Experiments.Exp_corpus.routers.Bdrmap.Validate.pct_correct
        r.Experiments.Exp_corpus.router_floor
        r.Experiments.Exp_corpus.coverage_pct
        r.Experiments.Exp_corpus.probes
    in
    Printf.sprintf "  \"corpus\": [\n%s\n  ]"
      (String.concat ",\n" (List.map row !corpus_rows))
  in
  let stages_block =
    let row (st : Obs.Manifest.stage) =
      Printf.sprintf
        "    {\"stage\": \"%s\", \"count\": %d, \"wall_s\": %.6f, \"sim_s\": %.6f, \
         \"gc_minor_words\": %d, \"gc_major_words\": %d, \"gc_compactions\": %d}"
        (json_escape st.Obs.Manifest.st_name) st.Obs.Manifest.st_count
        st.Obs.Manifest.st_wall_s st.Obs.Manifest.st_sim_s
        st.Obs.Manifest.st_minor_words st.Obs.Manifest.st_major_words
        st.Obs.Manifest.st_compactions
    in
    Printf.sprintf "  \"stages\": [\n%s\n  ]"
      (String.concat ",\n" (List.map row (Obs.Manifest.stages !obs_snapshot)))
  in
  let serve_block =
    let row (r : Serve.Bench_load.result) =
      Printf.sprintf
        "    {\"name\": \"owner-batch%d\", \"batch\": %d, \"queries\": %d, \
         \"qps\": %.0f, \"rtt_p50_us\": %.2f, \"rtt_p99_us\": %.2f, \
         \"minor_words_per_query\": %.4f, \"wall_s\": %.6f}"
        r.Serve.Bench_load.batch r.Serve.Bench_load.batch
        r.Serve.Bench_load.queries r.Serve.Bench_load.qps
        r.Serve.Bench_load.rtt_p50_us r.Serve.Bench_load.rtt_p99_us
        r.Serve.Bench_load.minor_words_per_query r.Serve.Bench_load.wall_s
    in
    Printf.sprintf "  \"serve\": [\n%s\n  ]"
      (String.concat ",\n" (List.map row (List.rev !serve_rows)))
  in
  let metrics_block =
    let row (name, v) =
      match v with
      | Obs.Metrics.Counter n ->
        Printf.sprintf "    {\"name\": \"%s\", \"total\": %d}" (json_escape name) n
      | Obs.Metrics.Gauge g ->
        Printf.sprintf "    {\"name\": \"%s\", \"max\": %g}" (json_escape name) g
      | Obs.Metrics.Histogram h ->
        (* Derived percentiles ride along so run-diff tooling can gate
           on tail latency without re-deriving bucket math. *)
        let q =
          match Obs.Summary.of_hist h with
          | None -> ""
          | Some q ->
            Printf.sprintf ", \"p50\": %g, \"p90\": %g, \"p99\": %g"
              q.Obs.Summary.p50 q.Obs.Summary.p90 q.Obs.Summary.p99
        in
        Printf.sprintf "    {\"name\": \"%s\", \"count\": %d, \"sum\": %g%s}"
          (json_escape name) h.Obs.Metrics.h_count h.Obs.Metrics.h_sum q
    in
    Printf.sprintf "  \"metrics\": [\n%s\n  ]"
      (String.concat ",\n" (List.map row !obs_snapshot))
  in
  let churn_block =
    let row r =
      Printf.sprintf
        "    {\"name\": \"%s\", \"full_wall_s\": %.6f, \"incr_wall_s\": %.6f, \
         \"speedup\": %.2f, \"dirty\": %d, \"total_pfx\": %d, \
         \"full_minor_words\": %.0f, \"full_major_words\": %.0f, \
         \"incr_minor_words\": %.0f, \"incr_major_words\": %.0f}"
        (json_escape r.c_name) r.c_full_wall_s r.c_incr_wall_s
        (r.c_full_wall_s /. Float.max 1e-9 r.c_incr_wall_s)
        r.c_dirty r.c_total r.c_full_minor r.c_full_major r.c_incr_minor
        r.c_incr_major
    in
    Printf.sprintf "  \"churn\": [\n%s\n  ]"
      (String.concat ",\n" (List.map row (List.rev !churn_rows)))
  in
  let longitudinal_block =
    let row (r : Experiments.Exp_longitudinal.row) =
      Printf.sprintf
        "    {\"epoch\": %d, \"time_s\": %g, \"dirty\": %d, \"total_pfx\": %d, \
         \"borders\": %d, \"links_pct\": %.2f, \"links_floor\": %.2f, \
         \"routers_pct\": %.2f, \"drift_pct\": %.2f}"
        r.Experiments.Exp_longitudinal.epoch
        r.Experiments.Exp_longitudinal.time
        r.Experiments.Exp_longitudinal.dirty
        r.Experiments.Exp_longitudinal.total_pfx
        r.Experiments.Exp_longitudinal.borders
        r.Experiments.Exp_longitudinal.links.Bdrmap.Validate.pct_correct
        longitudinal_links_floor
        r.Experiments.Exp_longitudinal.routers.Bdrmap.Validate.pct_correct
        r.Experiments.Exp_longitudinal.drift_pct
    in
    Printf.sprintf "  \"longitudinal\": [\n%s\n  ]"
      (String.concat ",\n" (List.map row !longitudinal_rows))
  in
  Printf.fprintf oc
    "{\n  \"schema\": \"bdrmap-bench/10\",\n  \"scale\": %g,\n  \"domains\": %d,\n%s,\n%s,\n%s,\n%s,\n%s,\n%s,\n%s,\n%s,\n%s\n}\n"
    scale jobs experiments_block robustness_block corpus_block churn_block
    longitudinal_block serve_block stages_block metrics_block
    (block "micro" "{\"name\": \"%s\", \"ns_per_run\": %.1f}" (List.rev !micro_times));
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  (* Stage spans and pipeline counters accumulate across the whole
     experiment sweep and land in BENCH.json next to the wall-clock
     numbers (their merged totals are pool-size independent). *)
  Obs.Metrics.enable ();
  let finish () =
    let out = Option.value ~default:"BENCH.json" (Sys.getenv_opt "BDRMAP_BENCH_OUT") in
    write_bench_json out;
    banner "done"
  in
  if jobs = 1 then begin
    experiments None;
    robustness ();
    corpus ();
    churn_bench ();
    longitudinal ();
    store_comparison None;
    snapshot_comparison ();
    scale3_snapshot ();
    serve_bench ();
    snapshot_obs ();
    micro ();
    finish ()
  end
  else
    Netcore.Pool.with_pool ~domains:jobs (fun pool ->
        let pool = Some pool in
        experiments pool;
        robustness ();
        corpus ();
        churn_bench ();
        longitudinal ();
        parallel_comparison pool;
        store_comparison pool;
        snapshot_comparison ();
        scale3_snapshot ();
        serve_bench ();
        snapshot_obs ();
        micro ();
        finish ())
