(* Scenario preset invariants: every preset generates a consistent world
   with the advertised shape, and scaling shrinks neighbor counts. *)

module Gen = Topogen.Gen
module Net = Topogen.Net
open Netcore

let presets =
  [ ("r_and_e", Topogen.Scenario.r_and_e ~scale:0.2 (), 1);
    ("large_access", Topogen.Scenario.large_access ~scale:0.1 (), 19);
    ("tier1", Topogen.Scenario.tier1 ~scale:0.1 (), 4);
    ("small_access", Topogen.Scenario.small_access ~scale:0.2 (), 2) ]

let test_presets_generate () =
  List.iter
    (fun (name, params, n_vps) ->
      let w = Gen.generate params in
      Alcotest.(check int) (name ^ " vps") n_vps (List.length w.vps);
      Alcotest.(check bool) (name ^ " routers") true (Net.router_count w.net > 50);
      Alcotest.(check bool) (name ^ " interdomain links") true
        (List.length (Net.interdomain_links w.net) > 20);
      (* Every VP router belongs to the hosting AS. *)
      List.iter
        (fun (vp : Gen.vp) ->
          Alcotest.(check int) (name ^ " vp owner") w.host_asn
            (Net.router w.net vp.vp_rid).Net.owner)
        w.vps)
    presets

let test_tier1_has_no_providers () =
  let w = Gen.generate (Topogen.Scenario.tier1 ~scale:0.1 ()) in
  let truth = Gen.host_neighbor_truth w in
  Alcotest.(check int) "no providers" 0
    (Asn.Map.fold (fun _ v n -> if v = `Provider then n + 1 else n) truth 0)

let test_scale_shrinks () =
  let big = Gen.generate (Topogen.Scenario.r_and_e ~scale:0.6 ()) in
  let small = Gen.generate (Topogen.Scenario.r_and_e ~scale:0.2 ()) in
  Alcotest.(check bool) "fewer routers at smaller scale" true
    (Net.router_count small.net < Net.router_count big.net)

let test_by_name () =
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Topogen.Scenario.by_name name <> None))
    [ "r_and_e"; "large_access"; "tier1"; "small_access" ];
  Alcotest.(check bool) "unknown" true (Topogen.Scenario.by_name "nope" = None)

let test_big_peer_links_scale_with_preset () =
  let w = Gen.generate (Topogen.Scenario.large_access ~scale:0.1 ()) in
  Alcotest.(check int) "45 big-peer links" 45
    (List.length (Net.interdomain_links_between w.net w.host_asn w.big_peer))

let test_rate_limiting () =
  (* A rate-limited engine still completes traces, with gaps. *)
  let w = Gen.generate Topogen.Scenario.tiny in
  let bgp =
    Routing.Bgp.freeze
      (Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
         ~selective:w.Gen.selective)
  in
  let fwd = Routing.Forwarding.create w.Gen.net bgp in
  (* Half the routers answer from a token bucket holding two replies
     and refilling one every two simulated seconds: at 100 pps a trace
     drains it quickly. *)
  let engine =
    Probesim.Engine.create
      ~fault:
        { (Probesim.Fault.of_profile w) with
          Probesim.Fault.rl_share = 0.5;
          rl_rate = 0.5;
          rl_burst = 2.0 }
      w fwd
  in
  let vp = List.hd w.vps in
  let dsts =
    List.filter_map
      (fun (p, o) ->
        if Asn.Set.mem w.host_asn o then None else Some (Ipv4.add (Prefix.first p) 1))
      (Gen.originated w)
    |> List.filteri (fun i _ -> i < 30)
  in
  let with_reply, without_reply =
    List.fold_left
      (fun (r, n) dst ->
        let hops = Probesim.Engine.traceroute engine ~vp ~dst () in
        List.fold_left
          (fun (r, n) (h : Probesim.Engine.hop) ->
            match h.reply with
            | Some _ -> (r + 1, n)
            | None -> (r, n + 1))
          (r, n) hops)
      (0, 0) dsts
  in
  Alcotest.(check bool) "some replies survive" true (with_reply > 50);
  Alcotest.(check bool) "rate limiting produces gaps" true (without_reply > 10)

let suite =
  [ Alcotest.test_case "presets generate" `Quick test_presets_generate;
    Alcotest.test_case "tier1 has no providers" `Quick test_tier1_has_no_providers;
    Alcotest.test_case "scale shrinks" `Quick test_scale_shrinks;
    Alcotest.test_case "by_name" `Quick test_by_name;
    Alcotest.test_case "big peer link count" `Quick test_big_peer_links_scale_with_preset;
    Alcotest.test_case "rate limiting" `Quick test_rate_limiting ]
