open Netcore
module Gen = Topogen.Gen
module Ag = Bdrmap.Aggregate

let ip = Ipv4.of_string_exn

let rec_ near far neighbor tag =
  { Bdrmap.Output.near_addrs = List.map ip near;
    far_addrs = List.map ip far;
    neighbor;
    tag }

let test_merge_same_link () =
  let runs =
    [ { Ag.vp_name = "vp1";
        links = [ rec_ [ "81.0.0.1" ] [ "82.0.0.9" ] 65001 Bdrmap.Heuristics.T4_onenet ] };
      { Ag.vp_name = "vp2";
        links =
          [ rec_ [ "81.0.0.1"; "81.0.0.3" ] [ "82.0.0.9"; "82.0.1.9" ] 65001
              Bdrmap.Heuristics.T5_relationship ] } ]
  in
  let merged = Ag.merge runs in
  Alcotest.(check int) "one merged link" 1 (List.length merged);
  let m = List.hd merged in
  Alcotest.(check (list string)) "seen by both" [ "vp1"; "vp2" ] m.Ag.seen_by;
  Alcotest.(check int) "far addrs unioned" 2 (Ipv4.Set.cardinal m.Ag.far_addrs);
  Alcotest.(check int) "both tags kept" 2 (List.length m.Ag.tags)

let test_distinct_links_stay_apart () =
  let runs =
    [ { Ag.vp_name = "vp1";
        links =
          [ rec_ [ "81.0.0.1" ] [ "82.0.0.9" ] 65001 Bdrmap.Heuristics.T4_onenet;
            rec_ [ "81.0.0.5" ] [ "82.0.5.9" ] 65001 Bdrmap.Heuristics.T4_onenet;
            rec_ [ "81.0.0.1" ] [ "83.0.0.9" ] 65002 Bdrmap.Heuristics.T4_onenet ] } ]
  in
  Alcotest.(check int) "three distinct links" 3 (List.length (Ag.merge runs))

let test_silent_links_match_on_near () =
  let runs =
    [ { Ag.vp_name = "vp1";
        links = [ rec_ [ "81.0.0.1" ] [] 65001 Bdrmap.Heuristics.T8_silent ] };
      { Ag.vp_name = "vp2";
        links = [ rec_ [ "81.0.0.1" ] [] 65001 Bdrmap.Heuristics.T8_silent ] } ]
  in
  let merged = Ag.merge runs in
  Alcotest.(check int) "silent links merged" 1 (List.length merged);
  Alcotest.(check int) "two observers" 2 (List.length (List.hd merged).Ag.seen_by)

let test_per_neighbor () =
  let runs =
    [ { Ag.vp_name = "vp1";
        links =
          [ rec_ [ "81.0.0.1" ] [ "82.0.0.9" ] 65001 Bdrmap.Heuristics.T4_onenet;
            rec_ [ "81.0.0.5" ] [ "82.0.5.9" ] 65001 Bdrmap.Heuristics.T4_onenet;
            rec_ [ "81.0.0.7" ] [ "83.0.0.9" ] 65002 Bdrmap.Heuristics.T4_onenet ] } ]
  in
  Alcotest.(check (list (pair int int))) "counts" [ (65001, 2); (65002, 1) ]
    (Ag.per_neighbor (Ag.merge runs))

let test_marginal_utility () =
  let runs =
    [ { Ag.vp_name = "vp1";
        links = [ rec_ [ "81.0.0.1" ] [ "82.0.0.9" ] 65001 Bdrmap.Heuristics.T4_onenet ] };
      { Ag.vp_name = "vp2";
        links =
          [ rec_ [ "81.0.0.1" ] [ "82.0.0.9" ] 65001 Bdrmap.Heuristics.T4_onenet;
            rec_ [ "81.0.0.5" ] [ "82.0.5.9" ] 65001 Bdrmap.Heuristics.T4_onenet ] } ]
  in
  let merged = Ag.merge runs in
  Alcotest.(check (list int)) "cumulative" [ 1; 2 ]
    (Ag.marginal_utility ~vp_order:[ "vp1"; "vp2" ] merged)

(* End-to-end: merge real runs from two VPs of the tiny world. *)
let test_merge_real_runs () =
  let w = Gen.generate Topogen.Scenario.tiny in
  let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
  let runs =
    List.filteri (fun i _ -> i < 2) w.vps
    |> List.map (fun vp ->
           let r = Bdrmap.Pipeline.execute engine inputs ~vp in
           Ag.of_run vp.Gen.vp_name r.Bdrmap.Pipeline.graph r.Bdrmap.Pipeline.inference)
  in
  let merged = Ag.merge runs in
  let individual = List.fold_left (fun n r -> n + List.length r.Ag.links) 0 runs in
  Alcotest.(check bool) "merging deduplicates" true (List.length merged <= individual);
  Alcotest.(check bool) "some links shared across VPs" true
    (List.exists (fun m -> List.length m.Ag.seen_by = 2) merged);
  Alcotest.(check bool) "nondecreasing marginal utility" true
    (let mu =
       Ag.marginal_utility
         ~vp_order:(List.map (fun r -> r.Ag.vp_name) runs)
         merged
     in
     List.sort compare mu = mu)

(* [of_run] builds link records straight from the graph and the
   inference; the text format must carry exactly the same records, so
   rendering and re-parsing a run is the identity on every corpus
   world. *)
let test_of_run_matches_text_roundtrip () =
  let total = ref 0 in
  List.iter
    (fun (sc : Topogen.Corpus.scenario) ->
      let w = Gen.generate (sc.Topogen.Corpus.sc_params ~scale:0.1) in
      let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
      let vp = List.hd w.Gen.vps in
      let r = Bdrmap.Pipeline.execute engine inputs ~vp in
      let g = r.Bdrmap.Pipeline.graph and inf = r.Bdrmap.Pipeline.inference in
      let direct = (Ag.of_run vp.Gen.vp_name g inf).Ag.links in
      total := !total + List.length direct;
      match Bdrmap.Output.links_of_lines (Bdrmap.Output.links_to_lines g inf) with
      | Error e -> Alcotest.failf "%s: %s" sc.Topogen.Corpus.sc_name e
      | Ok parsed ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d records" sc.Topogen.Corpus.sc_name (List.length direct))
          true (direct = parsed))
    Topogen.Corpus.all;
  Alcotest.(check bool) "some links compared" true (!total > 0)

let suite =
  [ Alcotest.test_case "merge same link" `Quick test_merge_same_link;
    Alcotest.test_case "distinct links stay apart" `Quick test_distinct_links_stay_apart;
    Alcotest.test_case "silent links match on near" `Quick test_silent_links_match_on_near;
    Alcotest.test_case "per neighbor" `Quick test_per_neighbor;
    Alcotest.test_case "marginal utility" `Quick test_marginal_utility;
    Alcotest.test_case "merge real runs" `Quick test_merge_real_runs;
    Alcotest.test_case "of_run = text round trip on corpus worlds" `Quick
      test_of_run_matches_text_roundtrip ]
