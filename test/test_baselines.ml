(* The baseline algorithms on both synthetic traces and a generated
   world: the naive approach fires on every host->external transition;
   the MAP-IT-style rule needs two adjacent far-side interfaces. *)

open Netcore
module B = Bgpdata

let ip = Ipv4.of_string_exn

let ip2as =
  let rib =
    Result.get_ok
      (B.Rib.of_lines [ "81.0.0.0/16|900 64500"; "82.0.0.0/16|900 65001" ])
  in
  let dels = Result.get_ok (B.Delegation.of_lines []) in
  let ixp = Result.get_ok (B.Ixp.of_lines []) in
  Bdrmap.Ip2as.create ~rib ~ixp ~delegations:dels ~vp_asns:(Asn.Set.singleton 64500)

(* Traces toward AS 65001 in the collection text format. *)
let trace dst hops =
  Printf.sprintf "trace|%s|65001|0|%s|-" dst
    (String.concat "," (List.mapi (fun i a -> Printf.sprintf "%d:%s" (i + 1) a) hops))

let collection lines = Result.get_ok (Bdrmap.Output.collection_of_lines lines)

let test_naive_fires_on_transition () =
  let links =
    Bdrmap.Baselines.naive_ipas ip2as
      (collection [ trace "82.0.5.1" [ "81.0.0.1"; "81.0.0.5"; "82.0.0.9" ] ])
  in
  Alcotest.(check int) "one link" 1 (List.length links);
  let l = List.hd links in
  Alcotest.(check string) "near" "81.0.0.5" (Ipv4.to_string l.near_addr);
  Alcotest.(check int) "neighbor" 65001 l.neighbor

let test_mapit_needs_two_far_hops () =
  let one_far = collection [ trace "82.0.5.1" [ "81.0.0.1"; "81.0.0.5"; "82.0.0.9" ] ] in
  Alcotest.(check int) "path-end border invisible" 0
    (List.length (Bdrmap.Baselines.mapit ip2as one_far));
  let two_far =
    collection [ trace "82.0.5.1" [ "81.0.0.1"; "81.0.0.5"; "82.0.0.9"; "82.0.1.9" ] ]
  in
  Alcotest.(check int) "two far hops suffice" 1
    (List.length (Bdrmap.Baselines.mapit ip2as two_far))

let test_dedup () =
  let t = trace "82.0.5.1" [ "81.0.0.1"; "82.0.0.9" ] in
  let links = Bdrmap.Baselines.naive_ipas ip2as (collection [ t; t; t ]) in
  Alcotest.(check int) "duplicates collapsed" 1 (List.length links)

let test_world_comparison () =
  (* bdrmap must find strictly more neighbors than the MAP-IT rule on a
     generated world (the paper's half-the-links observation). *)
  let t = Experiments.Exp_baselines.run ~scale:0.3 () in
  match t.rows with
  | [ bdr; naive; mapit ] ->
    Alcotest.(check string) "order" "bdrmap" bdr.algorithm;
    Alcotest.(check bool) "bdrmap finds most links" true
      (bdr.links > naive.links && bdr.links > mapit.links);
    Alcotest.(check bool) "mapit misses path-end borders" true
      (mapit.links * 2 <= bdr.links);
    Alcotest.(check bool) "bdrmap accuracy high" true (bdr.correct_pct >= 85.0)
  | _ -> Alcotest.fail "expected three rows"

let suite =
  [ Alcotest.test_case "naive transition" `Quick test_naive_fires_on_transition;
    Alcotest.test_case "mapit adjacency requirement" `Quick test_mapit_needs_two_far_hops;
    Alcotest.test_case "dedup" `Quick test_dedup;
    Alcotest.test_case "world comparison" `Slow test_world_comparison ]
