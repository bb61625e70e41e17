(* End-to-end pipeline on generated worlds: accuracy, coverage,
   determinism, and reporting invariants. *)

module Gen = Topogen.Gen
open Netcore

let run_once params =
  let w = Gen.generate params in
  let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
  let vp = List.hd w.vps in
  let run = Bdrmap.Pipeline.execute engine inputs ~vp in
  (w, inputs, run)

let tiny_run = lazy (run_once Topogen.Scenario.tiny)
let re_run = lazy (run_once (Topogen.Scenario.r_and_e ~scale:0.4 ()))

let test_accuracy_tiny () =
  let w, _, run = Lazy.force tiny_run in
  let s = Bdrmap.Validate.summarize (Bdrmap.Validate.links w run.graph run.inference) in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %.1f%% over %d links" s.pct_correct s.total)
    true
    (s.total > 10 && s.pct_correct >= 65.0);
  Alcotest.(check int) "no wrong-AS inferences" 0 s.wrong

let test_accuracy_r_and_e () =
  let w, _, run = Lazy.force re_run in
  let s = Bdrmap.Validate.summarize (Bdrmap.Validate.links w run.graph run.inference) in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %.1f%% over %d links" s.pct_correct s.total)
    true
    (s.total > 20 && s.pct_correct >= 85.0)

let test_coverage () =
  let _, inputs, run = Lazy.force re_run in
  let t = Bdrmap.Report.table1 ~rels:inputs.rels ~vp_asns:inputs.vp_asns run.inference in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.1f%%" t.coverage_pct)
    true (t.coverage_pct >= 85.0)

let test_deterministic () =
  let _, _, run1 = run_once Topogen.Scenario.tiny in
  let _, _, run2 = run_once Topogen.Scenario.tiny in
  Alcotest.(check int) "same link count"
    (List.length run1.inference.links)
    (List.length run2.inference.links);
  let sig_of (run : Bdrmap.Pipeline.run) =
    List.map
      (fun (l : Bdrmap.Heuristics.border_link) ->
        (l.near_node, l.far_node, l.neighbor, Bdrmap.Heuristics.tag_label l.tag))
      run.inference.links
  in
  Alcotest.(check bool) "identical links" true (sig_of run1 = sig_of run2)

let test_links_have_near_host () =
  let _, _, run = Lazy.force tiny_run in
  List.iter
    (fun (l : Bdrmap.Heuristics.border_link) ->
      match l.near_node with
      | None -> Alcotest.fail "link without near router"
      | Some nid ->
        Alcotest.(check bool) "near router is host-owned" true
          (Bdrmap.Heuristics.owner_of run.inference nid = Bdrmap.Heuristics.Host_router))
    run.inference.links

let test_neighbors_not_vp_asns () =
  let _, inputs, run = Lazy.force tiny_run in
  List.iter
    (fun (l : Bdrmap.Heuristics.border_link) ->
      Alcotest.(check bool) "neighbor outside hosting org" true
        (not (Asn.Set.mem l.neighbor inputs.vp_asns)))
    run.inference.links

let test_far_nodes_unique_per_link () =
  let _, _, run = Lazy.force tiny_run in
  let keys =
    List.map
      (fun (l : Bdrmap.Heuristics.border_link) -> (l.near_node, l.far_node, l.neighbor))
      run.inference.links
  in
  Alcotest.(check int) "links deduplicated" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_artifacts_roundtrip () =
  (* Pipeline inputs already go through text round-trips; make sure the
     resulting rib is non-trivial and consistent with the world. *)
  let w, inputs, _ = Lazy.force tiny_run in
  Alcotest.(check bool) "rib has prefixes" true (Bgpdata.Rib.cardinal inputs.rib > 50);
  Alcotest.(check bool) "host prefixes in rib" true
    (Bgpdata.Rib.prefixes_originated_by inputs.rib (Asn.Set.singleton w.host_asn) <> [])

let test_router_accuracy_metric () =
  let w, _, run = Lazy.force re_run in
  let s = Bdrmap.Validate.router_accuracy w run.graph run.inference in
  Alcotest.(check bool) "router metric populated" true (s.total > 10);
  Alcotest.(check bool) "router accuracy sane" true
    (s.pct_correct >= 50.0 && s.pct_correct <= 100.0)

let test_shared_snapshot_sweep () =
  let w = Gen.generate Topogen.Scenario.tiny in
  let _shared, _fwd, _engine, inputs = Bdrmap.Pipeline.setup w in
  let vps = List.filteri (fun i _ -> i < 2) w.vps in
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.enable ();
  let count name = Obs.Metrics.find_counter (Obs.Metrics.collect ()) name in
  let builds0 = count "routing.snapshot.builds" in
  let shared = Bdrmap.Pipeline.freeze_routing w in
  let builds1 = count "routing.snapshot.builds" in
  Alcotest.(check int) "freeze_routing builds exactly once" (builds0 + 1) builds1;
  let attaches0 = count "routing.snapshot.attaches" in
  let runs_shared = Bdrmap.Pipeline.execute_all ~shared w inputs ~vps in
  Alcotest.(check int) "supplied shared is not rebuilt" builds1
    (count "routing.snapshot.builds");
  Alcotest.(check bool) "every VP attaches to the snapshot" true
    (count "routing.snapshot.attaches" - attaches0 >= List.length vps);
  if not was_enabled then Obs.Metrics.disable ();
  (* The sweep result must not depend on whether the snapshot was
     supplied or frozen by the sweep itself. *)
  let runs_lazy = Bdrmap.Pipeline.execute_all w inputs ~vps in
  let sig_of (run : Bdrmap.Pipeline.run) =
    List.map
      (fun (l : Bdrmap.Heuristics.border_link) ->
        (l.near_node, l.far_node, l.neighbor, Bdrmap.Heuristics.tag_label l.tag))
      run.inference.links
  in
  Alcotest.(check bool) "supplied-snapshot sweep = self-frozen sweep" true
    (List.map sig_of runs_shared = List.map sig_of runs_lazy)

let suite =
  [ Alcotest.test_case "tiny accuracy" `Quick test_accuracy_tiny;
    Alcotest.test_case "r&e accuracy" `Quick test_accuracy_r_and_e;
    Alcotest.test_case "coverage" `Quick test_coverage;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "links anchored at host" `Quick test_links_have_near_host;
    Alcotest.test_case "neighbors outside org" `Quick test_neighbors_not_vp_asns;
    Alcotest.test_case "links deduplicated" `Quick test_far_nodes_unique_per_link;
    Alcotest.test_case "artifact roundtrip" `Quick test_artifacts_roundtrip;
    Alcotest.test_case "router accuracy metric" `Quick test_router_accuracy_metric;
    Alcotest.test_case "shared snapshot sweep" `Quick test_shared_snapshot_sweep ]
