open Netcore
module Net = Topogen.Net
module Gen = Topogen.Gen

let world = lazy (Gen.generate Topogen.Scenario.tiny)

let test_deterministic () =
  let w1 = Gen.generate Topogen.Scenario.tiny in
  let w2 = Gen.generate Topogen.Scenario.tiny in
  Alcotest.(check int) "router count" (Net.router_count w1.net) (Net.router_count w2.net);
  Alcotest.(check int) "link count" (Net.link_count w1.net) (Net.link_count w2.net);
  let addrs w =
    List.concat_map
      (fun (l : Net.link) -> [ Ipv4.to_string (snd l.Net.a); Ipv4.to_string (snd l.Net.b) ])
      (Net.links w.Gen.net)
  in
  Alcotest.(check (list string)) "addresses identical" (addrs w1) (addrs w2)

let test_seed_changes_world () =
  let w1 = Gen.generate Topogen.Scenario.tiny in
  let w2 = Gen.generate { Topogen.Scenario.tiny with Gen.seed = 8 } in
  Alcotest.(check bool) "different seed differs" true
    (Net.router_count w1.net <> Net.router_count w2.net
    || Net.link_count w1.net <> Net.link_count w2.net
    ||
    let a w = List.map (fun (l : Net.link) -> snd l.Net.a) (Net.links w.Gen.net) in
    a w1 <> a w2)

let test_unique_addresses () =
  let w = Lazy.force world in
  (* An address may appear on several links only when it is an IXP LAN
     interface reused for multiple peerings, always on the same router. *)
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (l : Net.link) ->
      List.iter
        (fun (rid, addr) ->
          Hashtbl.replace tbl addr
            ((rid, l.Net.kind)
            :: Option.value ~default:[] (Hashtbl.find_opt tbl addr)))
        [ l.Net.a; l.Net.b ])
    (Net.links w.net);
  Hashtbl.iter
    (fun addr uses ->
      match uses with
      | [ _ ] -> ()
      | (rid0, _) :: _ ->
        List.iter
          (fun (rid, kind) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s reuse is same-router ixp lan" (Ipv4.to_string addr))
              true
              (rid = rid0
              &&
              match kind with
              | Net.Ixp_lan _ -> true
              | _ -> false))
          uses
      | [] -> ())
    tbl

let test_interdomain_links_match_rels () =
  let w = Lazy.force world in
  List.iter
    (fun (l : Net.link) ->
      let oa = (Net.router w.net (fst l.Net.a)).Net.owner in
      let ob = (Net.router w.net (fst l.Net.b)).Net.owner in
      Alcotest.(check bool)
        (Printf.sprintf "link %d AS%d-AS%d has a relationship" l.Net.lid oa ob)
        true
        (Bgpdata.As_rel.known w.rels_truth oa ob))
    (Net.interdomain_links w.net)

let test_internal_links_single_as () =
  let w = Lazy.force world in
  List.iter
    (fun (l : Net.link) ->
      if l.Net.kind = Net.Internal then
        let oa = (Net.router w.net (fst l.Net.a)).Net.owner in
        let ob = (Net.router w.net (fst l.Net.b)).Net.owner in
        Alcotest.(check int) (Printf.sprintf "internal link %d" l.Net.lid) oa ob)
    (Net.links w.net)

let test_interconnect_subnets () =
  let w = Lazy.force world in
  List.iter
    (fun (l : Net.link) ->
      match l.Net.kind with
      | Net.Private_interconnect subnet ->
        Alcotest.(check bool) "len 30 or 31" true
          (Prefix.len subnet = 30 || Prefix.len subnet = 31);
        Alcotest.(check bool) "a inside subnet" true (Prefix.mem (snd l.Net.a) subnet);
        Alcotest.(check bool) "b inside subnet" true (Prefix.mem (snd l.Net.b) subnet)
      | _ -> ())
    (Net.links w.net)

let test_customers_have_host_links () =
  let w = Lazy.force world in
  let truth = Gen.host_neighbor_truth w in
  Asn.Map.iter
    (fun asn kind ->
      if kind = `Customer && asn >= 40001 && asn < 50000 then
        Alcotest.(check bool)
          (Printf.sprintf "customer AS%d linked to host" asn)
          true
          (Net.interdomain_links_between w.net w.host_asn asn <> []))
    truth

let test_delegations_cover_interfaces () =
  let w = Lazy.force world in
  List.iter
    (fun (l : Net.link) ->
      match l.Net.kind with
      | Net.Ixp_lan _ -> ()
      | _ ->
        List.iter
          (fun addr ->
            Alcotest.(check bool)
              (Printf.sprintf "delegation covers %s" (Ipv4.to_string addr))
              true
              (Bgpdata.Delegation.find w.delegations addr <> None))
          [ snd l.Net.a; snd l.Net.b ])
    (Net.links w.net)

let test_ixp_lan_addresses_registered () =
  let w = Lazy.force world in
  List.iter
    (fun (l : Net.link) ->
      match l.Net.kind with
      | Net.Ixp_lan name ->
        List.iter
          (fun addr ->
            Alcotest.(check (option string))
              (Printf.sprintf "%s on ixp lan" (Ipv4.to_string addr))
              (Some name)
              (Bgpdata.Ixp.ixp_of w.ixp_registry addr))
          [ snd l.Net.a; snd l.Net.b ]
      | _ -> ())
    (Net.links w.net)

let test_vps_in_host () =
  let w = Lazy.force world in
  Alcotest.(check int) "vp count" 3 (List.length w.vps);
  List.iter
    (fun (vp : Gen.vp) ->
      Alcotest.(check int) (vp.vp_name ^ " owned by host") w.host_asn
        (Net.router w.net vp.vp_rid).Net.owner)
    w.vps

let test_neighbor_truth_counts () =
  let w = Lazy.force world in
  let truth = Gen.host_neighbor_truth w in
  let count k = Asn.Map.fold (fun _ v n -> if v = k then n + 1 else n) truth 0 in
  Alcotest.(check int) "customers" 12 (count `Customer);
  Alcotest.(check int) "providers" 2 (count `Provider);
  Alcotest.(check bool) "peers present" true (count `Peer >= 5);
  Alcotest.(check bool) "siblings excluded" true
    (Asn.Set.for_all (fun s -> not (Asn.Map.mem s truth)) w.siblings)

let test_homes_resolve () =
  let w = Lazy.force world in
  List.iter
    (fun (p, origins) ->
      match Net.home_of w.net (Prefix.first p) with
      | None -> Alcotest.failf "prefix %s has no home" (Prefix.to_string p)
      | Some home ->
        let owner_org r =
          Bgpdata.As2org.org_of w.as2org r
        in
        let origin = Asn.Set.min_elt origins in
        Alcotest.(check bool)
          (Printf.sprintf "home of %s owned by origin or sibling" (Prefix.to_string p))
          true
          (Asn.Set.mem home.Net.owner origins
          || owner_org home.Net.owner = owner_org origin))
    (Gen.originated w)

let test_big_peer_link_count () =
  let w = Lazy.force world in
  let links = Net.interdomain_links_between w.net w.host_asn w.big_peer in
  Alcotest.(check int) "big peer interconnects" 4 (List.length links)

let test_addressing_pools () =
  let alloc = Topogen.Addressing.create () in
  let b1 = Topogen.Addressing.alloc_block alloc 16 in
  let b2 = Topogen.Addressing.alloc_block alloc 20 in
  Alcotest.(check bool) "blocks disjoint" true
    (not (Prefix.mem (Prefix.first b2) b1) && not (Prefix.mem (Prefix.first b1) b2));
  let pool = Topogen.Addressing.pool_of b2 in
  let s1 = Topogen.Addressing.alloc_subnet pool 30 in
  let s2 = Topogen.Addressing.alloc_subnet pool 31 in
  Alcotest.(check bool) "subnets inside pool" true
    (List.for_all
       (fun s -> Prefix.len s >= Prefix.len b2 && Prefix.mem (Prefix.first s) b2)
       [ s1; s2 ]);
  Alcotest.(check bool) "subnets disjoint" true (not (Prefix.equal s1 s2));
  let a, b = Topogen.Addressing.p2p_addrs s1 in
  Alcotest.(check bool) "/30 usable addrs" true
    (Ipv4.diff b a = 1 && Prefix.mem a s1 && Prefix.mem b s1)

let test_geo () =
  let sj = Option.get (Topogen.Geo.city_named "San Jose") in
  let ny = Option.get (Topogen.Geo.city_named "New York") in
  let d = Topogen.Geo.distance_km sj ny in
  Alcotest.(check bool) "SJ-NY ~4100km" true (d > 3900.0 && d < 4300.0);
  Alcotest.(check bool) "distance symmetric" true
    (abs_float (d -. Topogen.Geo.distance_km ny sj) < 1e-6);
  Alcotest.(check (float 0.001)) "self distance" 0.0 (Topogen.Geo.distance_km sj sj)

let suite =
  [ Alcotest.test_case "deterministic generation" `Quick test_deterministic;
    Alcotest.test_case "seed changes world" `Quick test_seed_changes_world;
    Alcotest.test_case "unique interface addresses" `Quick test_unique_addresses;
    Alcotest.test_case "interdomain links match relationships" `Quick
      test_interdomain_links_match_rels;
    Alcotest.test_case "internal links stay in one AS" `Quick test_internal_links_single_as;
    Alcotest.test_case "interconnect subnets" `Quick test_interconnect_subnets;
    Alcotest.test_case "customers linked to host" `Quick test_customers_have_host_links;
    Alcotest.test_case "delegations cover interfaces" `Quick test_delegations_cover_interfaces;
    Alcotest.test_case "ixp lan addresses registered" `Quick test_ixp_lan_addresses_registered;
    Alcotest.test_case "vps in host AS" `Quick test_vps_in_host;
    Alcotest.test_case "neighbor truth counts" `Quick test_neighbor_truth_counts;
    Alcotest.test_case "homes resolve" `Quick test_homes_resolve;
    Alcotest.test_case "big peer link count" `Quick test_big_peer_link_count;
    Alcotest.test_case "addressing pools" `Quick test_addressing_pools;
    Alcotest.test_case "geography" `Quick test_geo ]
