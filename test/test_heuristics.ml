(* Hand-built micro-topologies mirroring the paper's figures 4-11: each
   test feeds the inference synthetic traces and checks which heuristic
   fires and what owner it assigns. *)

open Netcore
module B = Bgpdata
module H = Bdrmap.Heuristics

let ip = Ipv4.of_string_exn

let host_asn = 64500

(* Address plan: 10.0/16 host; 20.0/16 AS 65001 (A); 30.0/16 AS 65002 (B);
   40.0/16 AS 65003 (C); 50.0/16 unrouted (delegated to org-a);
   86.0.0.0/24 an IXP LAN. *)
let rib_lines =
  [ "81.0.0.0/16|900 64500";
    "82.0.0.0/16|900 65001";
    "83.0.0.0/16|900 65002";
    "84.0.0.0/16|900 65003" ]

let del_lines =
  [ "sim|US|ipv4|81.0.0.0|65536|20160101|allocated|org-host";
    "sim|US|ipv4|82.0.0.0|65536|20160101|allocated|org-a";
    "sim|US|ipv4|83.0.0.0|65536|20160101|allocated|org-b";
    "sim|US|ipv4|84.0.0.0|65536|20160101|allocated|org-c";
    "sim|US|ipv4|85.0.0.0|65536|20160101|allocated|org-a" ]

let ixp_lines = [ "prefix|86.0.0.0/24|test-ix" ]

let ip2as =
  let rib = Result.get_ok (B.Rib.of_lines rib_lines) in
  let dels = Result.get_ok (B.Delegation.of_lines del_lines) in
  let ixp = Result.get_ok (B.Ixp.of_lines ixp_lines) in
  Bdrmap.Ip2as.create ~rib ~ixp ~delegations:dels
    ~vp_asns:(Asn.Set.singleton host_asn)

let cfg = Bdrmap.Config.default ~vp_asns:(Asn.Set.singleton host_asn)

module Uf = Aliasres.Alias_graph.Uf

(* A trace whose hops register in the collection's registry. *)
let trace ?(closing = Bdrmap.Trace.Nothing) ~target dst hops uf =
  { Bdrmap.Trace.dst = ip dst;
    target_asn = target;
    hops =
      Array.of_list
        (List.mapi (fun i a -> Bdrmap.Trace.hop ~ttl:(i + 1) (Uf.intern uf ~observed:true (ip a))) hops);
    closing;
    stopped = false }

let collection ?(aliases = []) ?(not_aliases = []) ?(mates = []) traces =
  let g = Uf.create () in
  List.iter (fun (a, b) -> Alias_ref.add_not_alias g (ip a) (ip b)) not_aliases;
  List.iter (fun (a, b) -> Alias_ref.add_alias g (ip a) (ip b)) aliases;
  let traces = List.map (fun t -> t g) traces in
  let id a = Uf.intern g ~observed:false (ip a) in
  Bdrmap.Collect.finish g traces
    (List.map (fun (p, h, m) -> (id p, id h, id m)) mates)
    ~sched:(Probesim.Scheduler.create ~pps:100.0) ~alias_pairs_tested:0

let infer ?(rels = B.As_rel.empty) c =
  let g = Bdrmap.Rgraph.build c in
  (g, H.infer cfg ip2as ~rels g c)

(* The node holding [a], by a scan over every node. *)
let node_of_addr g a =
  List.find_opt
    (fun (n : Bdrmap.Rgraph.node) -> List.mem a (Bdrmap.Rgraph.all_addrs g n.id))
    (Bdrmap.Rgraph.nodes g)

let owner_at (g, (r : H.result)) addr =
  match node_of_addr g (ip addr) with
  | None -> Alcotest.failf "no node holds %s" addr
  | Some n -> H.owner_of r n.Bdrmap.Rgraph.id

let check_neighbor msg res addr asn tag =
  match owner_at res addr with
  | H.Neighbor (a, t) ->
    Alcotest.(check int) (msg ^ ": owner") asn a;
    Alcotest.(check string) (msg ^ ": tag") (H.tag_label tag) (H.tag_label t)
  | H.Host_router -> Alcotest.failf "%s: inferred host router" msg
  | H.Unknown -> Alcotest.failf "%s: unresolved" msg

let check_host msg res addr =
  match owner_at res addr with
  | H.Host_router -> ()
  | H.Neighbor (a, t) ->
    Alcotest.failf "%s: inferred AS%d via %s, expected host" msg a (H.tag_label t)
  | H.Unknown -> Alcotest.failf "%s: unresolved" msg

(* Figure 4 step 1.2: host-space router followed by more host space. *)
let test_fig4_host_routers () =
  let res =
    infer
      (collection
         [ trace ~target:65001 "82.0.0.1" [ "81.0.0.1"; "81.0.0.5"; "81.0.9.2" ] ])
  in
  check_host "R1 with host successors" res "81.0.0.1";
  check_host "R2 with host successor" res "81.0.0.5"

(* Figure 4 step 1.1: multihomed neighbor chain with A adjacent. *)
let test_fig4_multihomed () =
  let res =
    infer
      (collection
         [ trace ~target:65001 "82.0.0.1" [ "81.0.0.1"; "81.0.1.1"; "81.0.1.5" ];
           trace ~target:65001 "82.0.1.1" [ "81.0.0.1"; "81.0.1.1"; "82.0.0.9" ] ])
  in
  check_host "edge router stays host" res "81.0.0.1";
  check_neighbor "R1 of multihomed pair" res "81.0.1.1" 65001 H.T1_multihomed

(* Figure 4 step 1.1 guard: a successor owned by a host customer that is
   not a neighbor of A forces the router back to the host. *)
let test_fig4_multihomed_guard () =
  let rels = B.As_rel.add_c2p B.As_rel.empty ~provider:host_asn ~customer:65002 in
  let res =
    infer ~rels
      (collection
         [ trace ~target:65001 "82.0.0.1" [ "81.0.0.1"; "81.0.1.1"; "81.0.1.5" ];
           trace ~target:65001 "82.0.1.1" [ "81.0.0.1"; "81.0.1.1"; "82.0.0.9" ];
           trace ~target:65001 "82.0.2.1" [ "81.0.0.1"; "81.0.1.1"; "83.0.0.9" ] ])
  in
  check_host "guard reverts to host" res "81.0.1.1"

(* Figure 5: firewalled neighbor, last hop in host space. *)
let test_fig5_firewall () =
  let res =
    infer
      (collection
         [ trace ~target:65001 "82.0.0.1" [ "81.0.0.1"; "81.0.9.1" ];
           trace ~target:65001 "82.0.1.1" [ "81.0.0.1"; "81.0.9.1" ] ])
  in
  check_host "edge" res "81.0.0.1";
  check_neighbor "firewalled border" res "81.0.9.1" 65001 H.T2_firewall

(* Figure 6: unrouted interfaces, single routed AS beyond. *)
let test_fig6_unrouted_single () =
  let res =
    infer
      (collection
         [ trace ~target:65001 "82.0.0.1"
             [ "81.0.0.1"; "85.0.0.1"; "82.0.0.9" ] ])
  in
  check_neighbor "unrouted router" res "85.0.0.1" 65001 H.T3_unrouted

(* Figure 6 variant: multiple routed ASes beyond, provider wins. *)
let test_fig6_unrouted_multi () =
  let rels = B.As_rel.empty in
  let rels = B.As_rel.add_c2p rels ~provider:65003 ~customer:65001 in
  let rels = B.As_rel.add_c2p rels ~provider:65003 ~customer:65002 in
  let res =
    infer ~rels
      (collection
         [ trace ~target:65001 "82.0.0.1" [ "81.0.0.1"; "85.0.0.1"; "82.0.0.9" ];
           trace ~target:65002 "83.0.0.1" [ "81.0.0.1"; "85.0.0.1"; "83.0.0.9" ] ])
  in
  check_neighbor "most frequent provider" res "85.0.0.1" 65003 H.T3_unrouted

(* IXP LAN addresses behave like unrouted space (§5.4.3), and the host's
   router before the exchange stays with the host. *)
let test_ixp_lan () =
  let res =
    infer
      (collection
         [ trace ~target:65001 "82.0.0.1"
             [ "81.0.0.1"; "81.0.2.1"; "86.0.0.7"; "82.0.0.9" ] ])
  in
  check_host "host router before the LAN" res "81.0.2.1";
  check_neighbor "member router on the LAN" res "86.0.0.7" 65001 H.T3_unrouted

(* Figure 7 step 4.1: consecutive interfaces in one external AS. *)
let test_fig7_onenet_ext () =
  let res =
    infer
      (collection
         [ trace ~target:65001 "82.0.5.1"
             [ "81.0.0.1"; "82.0.0.9"; "82.0.1.9"; "82.0.2.9" ] ])
  in
  check_neighbor "4.1 first A router" res "82.0.0.9" 65001 H.T4_onenet

(* Figure 7 step 4.2: host-space border followed by two A routers. *)
let test_fig7_onenet_host () =
  let res =
    infer
      (collection
         [ trace ~target:65001 "82.0.5.1"
             [ "81.0.0.1"; "81.0.9.1"; "82.0.0.9"; "82.0.1.9" ] ])
  in
  check_neighbor "4.2 host-space border" res "81.0.9.1" 65001 H.T4_onenet

(* Figure 8 steps 5.1/5.2: third-party address from A (provider of B)
   on paths toward B only. *)
let test_fig8_third_party () =
  let rels = B.As_rel.add_c2p B.As_rel.empty ~provider:65001 ~customer:65002 in
  let res =
    infer ~rels
      (collection
         [ trace ~target:65002 "83.0.0.1" [ "81.0.0.1"; "81.0.9.1"; "82.0.0.9" ] ])
  in
  check_neighbor "5.2 third-party responder" res "82.0.0.9" 65002 H.T5_third_party;
  check_neighbor "5.1 host-space predecessor" res "81.0.9.1" 65002 H.T5_third_party

(* Figure 8 step 5.3: known customer beyond a host-space border. *)
let test_fig8_relationship () =
  let rels = B.As_rel.add_c2p B.As_rel.empty ~provider:host_asn ~customer:65001 in
  let res =
    infer ~rels
      (collection
         [ trace ~target:65001 "82.0.5.1" [ "81.0.0.1"; "81.0.9.1"; "82.0.0.9" ];
           trace ~target:65002 "83.0.0.1" [ "81.0.0.1"; "81.0.9.1"; "82.0.0.9"; "83.0.0.9" ] ])
  in
  check_neighbor "5.3 known customer" res "81.0.9.1" 65001 H.T5_relationship

(* Figure 8 step 5.4: missing customer via an intermediate provider. *)
let test_fig8_missing_customer () =
  let rels = B.As_rel.empty in
  let rels = B.As_rel.add_c2p rels ~provider:host_asn ~customer:65002 in
  let rels = B.As_rel.add_c2p rels ~provider:65002 ~customer:65001 in
  let res =
    infer ~rels
      (collection
         [ trace ~target:65001 "82.0.5.1" [ "81.0.0.1"; "81.0.9.1"; "82.0.0.9" ];
           trace ~target:65003 "84.0.0.1" [ "81.0.0.1"; "81.0.9.1"; "82.0.0.9"; "84.0.0.9" ] ])
  in
  check_neighbor "5.4 missing customer" res "81.0.9.1" 65002 H.T5_missing_customer

(* Figure 8 step 5.5: hidden peer - single AS beyond, no relationship. *)
let test_fig8_hidden_peer () =
  let res =
    infer
      (collection
         [ trace ~target:65001 "82.0.5.1" [ "81.0.0.1"; "81.0.9.1"; "82.0.0.9" ];
           trace ~target:65002 "83.0.0.1" [ "81.0.0.1"; "81.0.9.1"; "82.0.0.9"; "83.0.0.9" ] ])
  in
  check_neighbor "5.5 hidden peer" res "81.0.9.1" 65001 H.T5_hidden_peer

(* Figure 9 step 6.1: multiple adjacent ASes, majority count wins. *)
let test_fig9_count () =
  let res =
    infer
      (collection
         [ trace ~target:65001 "82.0.5.1" [ "81.0.0.1"; "81.0.9.1"; "82.0.0.9" ];
           trace ~target:65001 "82.0.6.1" [ "81.0.0.1"; "81.0.9.1"; "82.0.1.9" ];
           trace ~target:65002 "83.0.0.1" [ "81.0.0.1"; "81.0.9.1"; "83.0.0.9" ] ])
  in
  check_neighbor "6.1 majority" res "81.0.9.1" 65001 H.T6_count

(* Fallback 6: external addresses, no further constraint. *)
let test_fig9_ipas () =
  let res =
    infer
      (collection
         [ trace ~target:65001 "82.0.5.1" [ "81.0.0.1"; "82.0.0.9" ];
           trace ~target:65002 "83.0.0.1" [ "81.0.0.1"; "82.0.0.9" ] ])
  in
  check_neighbor "6 ip-as fallback" res "82.0.0.9" 65001 H.T6_ipas

(* Figure 10 step 7: single-interface host routers facing one neighbor
   router over a confirmed point-to-point link collapse into one. *)
let test_fig10_merge () =
  let c =
    collection
      ~mates:[ ("81.0.3.1", "82.0.0.9", "82.0.0.8") ]
      [ trace ~target:65001 "82.0.5.1" [ "81.0.0.1"; "81.0.3.1"; "82.0.0.9"; "82.0.1.9" ];
        trace ~target:65001 "82.0.6.1" [ "81.0.0.1"; "81.0.4.1"; "82.0.0.9"; "82.0.1.9" ];
        (* Host-space successors pin both near routers to the host, the
           step-1.2 precondition figure 10 relies on. *)
        trace ~target:65002 "83.0.0.1" [ "81.0.0.1"; "81.0.3.1"; "81.0.6.1"; "83.0.0.9" ];
        trace ~target:65002 "83.0.1.1" [ "81.0.0.1"; "81.0.4.1"; "81.0.6.1"; "83.0.0.9" ] ]
  in
  let g, r = infer c in
  let far = Option.get (node_of_addr g (ip "82.0.0.9")) in
  ignore far;
  let merged_total =
    Array.fold_left (fun acc m -> acc + List.length m) 0 r.H.merged_from
  in
  Alcotest.(check int) "one router merged away" 1 merged_total

(* Figure 11 step 8.1: silent neighbor placed at the consistent last
   host router. *)
let test_fig11_silent () =
  let rels = B.As_rel.add_c2p B.As_rel.empty ~provider:host_asn ~customer:65002 in
  let c =
    collection
      [ trace ~target:65002 "83.0.0.1" [ "81.0.0.1"; "81.0.2.1" ];
        trace ~target:65002 "83.0.1.1" [ "81.0.0.1"; "81.0.2.1" ];
        (* another AS keeps 81.0.2.1 anchored as a host router *)
        trace ~target:65001 "82.0.0.1" [ "81.0.0.1"; "81.0.2.1"; "81.0.9.1"; "82.0.0.9" ] ]
  in
  let _, r = infer ~rels c in
  let silent =
    List.find_opt
      (fun (l : H.border_link) -> l.H.neighbor = 65002 && l.H.tag = H.T8_silent)
      r.H.links
  in
  Alcotest.(check bool) "silent link found" true (silent <> None);
  match silent with
  | Some l -> Alcotest.(check bool) "no far router" true (l.H.far_node = None)
  | None -> ()

(* Figure 11 step 8.2: firewalled neighbor that answers with other ICMP. *)
let test_fig11_other_icmp () =
  let rels = B.As_rel.add_c2p B.As_rel.empty ~provider:host_asn ~customer:65002 in
  let c =
    collection
      [ trace ~target:65002 "83.0.0.1"
          ~closing:(Bdrmap.Trace.Echo (ip "83.0.0.1"))
          [ "81.0.0.1"; "81.0.2.1" ];
        trace ~target:65001 "82.0.0.1" [ "81.0.0.1"; "81.0.2.1"; "81.0.9.1"; "82.0.0.9" ] ]
  in
  let _, r = infer ~rels c in
  let found =
    List.find_opt
      (fun (l : H.border_link) -> l.H.neighbor = 65002 && l.H.tag = H.T8_other_icmp)
      r.H.links
  in
  Alcotest.(check bool) "other-icmp link found" true (found <> None)

(* §5.4.8 precondition: a neighbor with an already-inferred link is not
   revisited by step 8. *)
let test_fig11_skips_inferred () =
  let rels = B.As_rel.add_c2p B.As_rel.empty ~provider:host_asn ~customer:65001 in
  let c =
    collection
      [ trace ~target:65001 "82.0.0.1" [ "81.0.0.1"; "81.0.9.1"; "82.0.0.9"; "82.0.1.9" ] ]
  in
  let _, r = infer ~rels c in
  let silent_links =
    List.filter (fun (l : H.border_link) -> l.H.tag = H.T8_silent) r.H.links
  in
  Alcotest.(check int) "no step-8 link for covered neighbor" 0 (List.length silent_links)

(* Aliases collapse hops into single routers in the graph. *)
let test_alias_collapse () =
  let c =
    collection
      ~aliases:[ ("81.0.1.1", "81.0.1.9") ]
      [ trace ~target:65001 "82.0.0.1" [ "81.0.0.1"; "81.0.1.1"; "82.0.0.9" ];
        trace ~target:65001 "82.0.1.1" [ "81.0.0.1"; "81.0.1.9"; "82.0.0.9" ] ]
  in
  let g, _ = infer c in
  let n1 = Option.get (node_of_addr g (ip "81.0.1.1")) in
  let n2 = Option.get (node_of_addr g (ip "81.0.1.9")) in
  Alcotest.(check int) "same node" n1.Bdrmap.Rgraph.id n2.Bdrmap.Rgraph.id;
  Alcotest.(check int) "two addrs" 2 (List.length (Bdrmap.Rgraph.observed_addrs g n1.id))

(* The ablation knob suppresses a heuristic's inferences. *)
let test_ablation_disables () =
  let c =
    collection
      [ trace ~target:65001 "82.0.0.1" [ "81.0.0.1"; "81.0.9.1" ];
        trace ~target:65001 "82.0.1.1" [ "81.0.0.1"; "81.0.9.1" ] ]
  in
  let g = Bdrmap.Rgraph.build c in
  let r = H.infer ~disabled:[ H.T2_firewall ] cfg ip2as ~rels:B.As_rel.empty g c in
  let n = Option.get (node_of_addr g (ip "81.0.9.1")) in
  let o = H.owner_of r n.Bdrmap.Rgraph.id in
  Alcotest.(check bool) "firewall inference suppressed" true
    (match o with
    | H.Neighbor (_, H.T2_firewall) -> false
    | _ -> true)

let suite =
  [ Alcotest.test_case "fig4 host routers (1.2)" `Quick test_fig4_host_routers;
    Alcotest.test_case "fig4 multihomed pair (1.1)" `Quick test_fig4_multihomed;
    Alcotest.test_case "fig4 multihomed guard" `Quick test_fig4_multihomed_guard;
    Alcotest.test_case "fig5 firewall (2)" `Quick test_fig5_firewall;
    Alcotest.test_case "fig6 unrouted single (3.1)" `Quick test_fig6_unrouted_single;
    Alcotest.test_case "fig6 unrouted multi (3.2)" `Quick test_fig6_unrouted_multi;
    Alcotest.test_case "ixp lan router" `Quick test_ixp_lan;
    Alcotest.test_case "fig7 onenet external (4.1)" `Quick test_fig7_onenet_ext;
    Alcotest.test_case "fig7 onenet host border (4.2)" `Quick test_fig7_onenet_host;
    Alcotest.test_case "fig8 third party (5.1/5.2)" `Quick test_fig8_third_party;
    Alcotest.test_case "fig8 relationship (5.3)" `Quick test_fig8_relationship;
    Alcotest.test_case "fig8 missing customer (5.4)" `Quick test_fig8_missing_customer;
    Alcotest.test_case "fig8 hidden peer (5.5)" `Quick test_fig8_hidden_peer;
    Alcotest.test_case "fig9 count (6.1)" `Quick test_fig9_count;
    Alcotest.test_case "fig9 ip-as fallback (6)" `Quick test_fig9_ipas;
    Alcotest.test_case "fig10 alias merge (7)" `Quick test_fig10_merge;
    Alcotest.test_case "fig11 silent neighbor (8.1)" `Quick test_fig11_silent;
    Alcotest.test_case "fig11 other icmp (8.2)" `Quick test_fig11_other_icmp;
    Alcotest.test_case "fig11 skips inferred neighbors" `Quick test_fig11_skips_inferred;
    Alcotest.test_case "alias collapse in graph" `Quick test_alias_collapse;
    Alcotest.test_case "ablation disables a step" `Quick test_ablation_disables ]
