(* Small-scale smoke runs of every experiment: shapes and invariants
   rather than exact values. *)

let scale = 0.12

let test_table1 () =
  let rows = Experiments.Exp_table1.run ~scale () in
  Alcotest.(check int) "three scenarios" 3 (List.length rows);
  List.iter
    (fun (r : Experiments.Exp_table1.row) ->
      Alcotest.(check bool)
        (r.scenario ^ " coverage sane")
        true
        (r.table.Bdrmap.Report.coverage_pct >= 60.0
        && r.table.Bdrmap.Report.coverage_pct <= 100.0))
    rows

let test_validation () =
  let t = Experiments.Exp_validation.run ~scale () in
  let rows = t.Experiments.Exp_validation.rows in
  Alcotest.(check bool) "six rows (4 scenarios, 3 large-access VPs)" true
    (List.length rows = 6);
  List.iter
    (fun (r : Experiments.Exp_validation.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s accuracy %.1f" r.scenario r.vp_name
           r.links.Bdrmap.Validate.pct_correct)
        true
        (r.links.Bdrmap.Validate.total > 5
        && r.links.Bdrmap.Validate.pct_correct >= 60.0))
    rows;
  (* The merged large-access border map covers at least what any single
     VP validated and stays a sane multiple of it. *)
  Alcotest.(check int) "merged over three VPs" 3
    t.Experiments.Exp_validation.merged_vps;
  let la_totals =
    List.filter_map
      (fun (r : Experiments.Exp_validation.row) ->
        if r.scenario = "Large access network" then
          Some r.links.Bdrmap.Validate.total
        else None)
      rows
  in
  Alcotest.(check bool) "merged map at least as large as one VP's" true
    (t.Experiments.Exp_validation.merged_links
    >= List.fold_left max 0 la_totals)

let test_fig14 () =
  let t = Experiments.Exp_fig14.run ~scale () in
  Alcotest.(check int) "19 vps" 19 t.n_vps;
  Alcotest.(check bool) "prefixes measured" true (t.n_prefixes > 100);
  Alcotest.(check bool) "cdf monotone" true
    (let rec mono = function
       | (_, f1) :: ((_, f2) :: _ as rest) -> f1 <= f2 +. 1e-9 && mono rest
       | _ -> true
     in
     mono t.border_router_cdf);
  (match List.rev t.border_router_cdf with
  | (_, last) :: _ -> Alcotest.(check (float 0.001)) "cdf ends at 1" 1.0 last
  | [] -> Alcotest.fail "empty cdf");
  match t.remote with
  | Some (single, _, _, _) ->
    Alcotest.(check bool) "remote prefixes rarely single-exit" true (single < 10.0)
  | None -> Alcotest.fail "no remote breakdown"

let test_fig15 () =
  let t = Experiments.Exp_fig15.run ~scale () in
  Alcotest.(check bool) "series present" true (List.length t.series >= 4);
  List.iter
    (fun (s : Experiments.Exp_fig15.series) ->
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      Alcotest.(check bool) (s.neighbor ^ " cumulative nondecreasing") true
        (nondecreasing s.cumulative);
      Alcotest.(check bool) (s.neighbor ^ " bounded by truth") true
        (List.for_all (fun c -> c <= s.total_links) s.cumulative))
    t.series;
  (* The Akamai-like CDN must be fully discovered from the first VP. *)
  let akamai =
    List.find
      (fun (s : Experiments.Exp_fig15.series) ->
        String.length s.neighbor >= 6 && String.sub s.neighbor 0 6 = "akamai")
      t.series
  in
  Alcotest.(check int) "akamai-like from one VP" akamai.total_links
    (List.hd akamai.cumulative);
  (* The big peer needs many VPs: a single VP must not see everything. *)
  let big = List.hd t.series in
  Alcotest.(check bool) "level3-like needs several VPs" true
    (List.hd big.cumulative < big.total_links)

let test_fig16 () =
  let t = Experiments.Exp_fig16.run ~scale () in
  Alcotest.(check bool) "plots present" true (List.length t >= 2);
  List.iter
    (fun (p : Experiments.Exp_fig16.neighbor_plot) ->
      Alcotest.(check int) "19 rows" 19 (List.length p.rows);
      List.iter
        (fun (row : Experiments.Exp_fig16.vp_row) ->
          List.iter
            (fun (m : Experiments.Exp_fig16.mark) ->
              Alcotest.(check bool) "longitude in US range" true
                (m.lon > -130.0 && m.lon < -60.0))
            row.marks)
        p.rows)
    t

let test_runtime () =
  let rows = Experiments.Exp_runtime.run ~scale () in
  Alcotest.(check int) "two scenarios" 2 (List.length rows);
  List.iter
    (fun (r : Experiments.Exp_runtime.row) ->
      Alcotest.(check bool) (r.scenario ^ " probes positive") true (r.probes > 0);
      Alcotest.(check bool) (r.scenario ^ " stop sets save probes") true
        (r.trace_probes <= r.probes_without_stopset))
    rows

let test_resource () =
  let run scale =
    match Experiments.Exp_resource.run ~scale () with
    | Ok t -> t
    | Error e -> Alcotest.fail (Experiments.Exp_resource.error_to_string e)
  in
  let t = run scale in
  Alcotest.(check bool) "standalone exceeds whitebox" true
    (not t.standalone_fits_whitebox);
  Alcotest.(check bool) "split prober fits whitebox" true t.split_fits_whitebox;
  Alcotest.(check bool) "controller holds the state" true
    (t.standalone_bytes > 10 * t.device_bytes);
  (* A per-item size holds steady across scales only if no fixed-size
     part of a structure leaks into it. *)
  let rib_per_prefix (t : Experiments.Exp_resource.t) =
    let s =
      List.find (fun (s : Experiments.Exp_resource.share) -> s.name = "rib") t.shares
    in
    float_of_int s.bytes /. float_of_int s.items
  in
  let a = rib_per_prefix (run 0.1) and b = rib_per_prefix t in
  Alcotest.(check bool)
    (Printf.sprintf "RIB bytes per prefix steady (%.1f at 0.1, %.1f at %.2f)" a b scale)
    true
    (Float.abs (a -. b) < 0.1 *. Float.min a b)

let test_ablation () =
  let t = Experiments.Exp_ablation.run ~scale () in
  let full = List.hd t.heuristics in
  Alcotest.(check string) "first row is full" "full" full.Experiments.Exp_ablation.label;
  List.iter
    (fun (r : Experiments.Exp_ablation.heuristic_row) ->
      Alcotest.(check bool) (r.label ^ " links sane") true (r.links >= 0))
    t.heuristics;
  (* The classic proximity Ally must not be cleaner than the monotonic
     discipline. *)
  (match t.alias with
  | prox :: _ :: mono5 :: _ ->
    Alcotest.(check bool) "monotonic discipline at least as clean" true
      (mono5.Experiments.Exp_ablation.false_alias_groups
      <= prox.Experiments.Exp_ablation.false_alias_groups)
  | _ -> Alcotest.fail "expected three alias rows");
  (* Disabling the firewall heuristic must lose customer links. *)
  let no_fw =
    List.find
      (fun (r : Experiments.Exp_ablation.heuristic_row) -> r.label = "no firewall (2)")
      t.heuristics
  in
  Alcotest.(check bool) "firewall step carries links" true
    (no_fw.links < full.Experiments.Exp_ablation.links);
  (* The relationship refinement must help host-neighbor agreement. *)
  match t.rels with
  | [ refined; votes_only ] ->
    (* At small scale the sparse collector view can cost the refinement a
       couple of customer edges; it must stay in the same band (its real
       benefit, fixing provider/peer inversions, is asserted at full
       scale by the pipeline accuracy tests). *)
    Alcotest.(check bool) "refinement within band" true
      (refined.Experiments.Exp_ablation.agree
      >= votes_only.Experiments.Exp_ablation.agree - 3)
  | _ -> Alcotest.fail "expected two rel rows"

(* Setup freezes once; the sweeps that follow reuse its snapshot and
   plan, with or without a pool. *)
let test_sweeps_reuse_setup_freeze () =
  let module C = Experiments.Exp_common in
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.enable ();
  let builds () =
    Obs.Metrics.find_counter (Obs.Metrics.collect ()) "routing.snapshot.builds"
  in
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Obs.Metrics.disable ())
    (fun () ->
      let env = C.make Topogen.Scenario.tiny in
      let vps = List.filteri (fun i _ -> i < 2) env.C.world.Topogen.Gen.vps in
      let prefixes = List.filteri (fun i _ -> i < 10) (C.external_prefixes env) in
      let sweep label ?pool () =
        let b0 = builds () in
        ignore (C.run_vps ?pool env vps);
        ignore (C.crossing_links_by_vp ?pool env prefixes);
        Alcotest.(check int) (label ^ ": sweeps add no snapshot build") b0 (builds ())
      in
      sweep "no pool" ();
      Netcore.Pool.with_pool ~domains:2 (fun pool -> sweep "pool of 2" ~pool ()))

let suite =
  [ Alcotest.test_case "sweeps reuse setup's freeze" `Quick
      test_sweeps_reuse_setup_freeze;
    Alcotest.test_case "table1" `Slow test_table1;
    Alcotest.test_case "validation" `Slow test_validation;
    Alcotest.test_case "fig14" `Slow test_fig14;
    Alcotest.test_case "fig15" `Slow test_fig15;
    Alcotest.test_case "fig16" `Slow test_fig16;
    Alcotest.test_case "runtime" `Slow test_runtime;
    Alcotest.test_case "resource" `Slow test_resource;
    Alcotest.test_case "ablation" `Slow test_ablation ]
