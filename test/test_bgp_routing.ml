open Netcore
module Net = Topogen.Net
module Gen = Topogen.Gen
module Bgp = Routing.Bgp

let world = lazy (Gen.generate Topogen.Scenario.tiny)

let bgp_of w =
  Bgp.freeze
    (Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
       ~selective:w.Gen.selective)

let test_all_prefixes_reachable_from_host () =
  let w = Lazy.force world in
  let bgp = bgp_of w in
  List.iter
    (fun p ->
      if not (Bgp.is_origin bgp w.host_asn p) then
        Alcotest.(check bool)
          (Printf.sprintf "host routes to %s" (Prefix.to_string p))
          true
          (Bgp.route bgp w.host_asn p <> None))
    (Bgp.prefixes bgp)

let test_route_class_preferences () =
  let w = Lazy.force world in
  let bgp = bgp_of w in
  let truth = Gen.host_neighbor_truth w in
  (* Customer prefixes must be reached via customer routes, and peer
     prefixes (CDNs) via peer routes, never via providers. *)
  Asn.Map.iter
    (fun asn kind ->
      let node = Net.as_node w.net asn in
      List.iter
        (fun p ->
          match Bgp.route bgp w.host_asn p with
          | None -> Alcotest.failf "no route to %s" (Prefix.to_string p)
          | Some r -> (
            match kind with
            | `Customer ->
              Alcotest.(check bool)
                (Printf.sprintf "AS%d prefix via customer route" asn)
                true (r.Bgp.cls = Bgp.Cust)
            | `Peer ->
              Alcotest.(check bool)
                (Printf.sprintf "AS%d prefix via customer or peer route" asn)
                true
                (r.Bgp.cls = Bgp.Peer || r.Bgp.cls = Bgp.Cust)
            | `Provider -> ()))
        node.Net.prefixes)
    truth

let test_valley_free_paths () =
  let w = Lazy.force world in
  let bgp = bgp_of w in
  let rels = w.rels_truth in
  let check_path path =
    (* Once the path goes downhill (p2c) or flat (p2p), it must never go
       uphill (c2p) again, and at most one peer link is crossed. *)
    let links = Bgpdata.As_path.links path in
    let rec ok state peers = function
      | [] -> peers <= 1
      | (a, bb) :: rest -> (
        match Bgpdata.As_rel.rel rels ~of_:a ~with_:bb with
        | Some Bgpdata.As_rel.Customer -> ok `Down peers rest
        | Some Bgpdata.As_rel.Peer -> if state = `Down then false else ok `Down (peers + 1) rest
        | Some Bgpdata.As_rel.Provider -> state = `Up && ok `Up peers rest
        | None -> false)
    in
    (* Paths here run from the querying AS toward the origin, i.e. in the
       reverse of announcement flow: the first segment descends the
       querying AS's customer cone, flat or up segments come last. So
       validate the reversed path as an announcement path. *)
    let rev = List.rev path in
    let rev_links = Bgpdata.As_path.links rev in
    let rec ok_up state peers = function
      | [] -> peers <= 1
      | (a, bb) :: rest -> (
        match Bgpdata.As_rel.rel rels ~of_:a ~with_:bb with
        | Some Bgpdata.As_rel.Provider -> state = `Up && ok_up `Up peers rest
        | Some Bgpdata.As_rel.Peer ->
          if state = `Up then ok_up `Down (peers + 1) rest else false
        | Some Bgpdata.As_rel.Customer -> ok_up `Down peers rest
        | None -> false)
    in
    ignore ok;
    ignore links;
    ok_up `Up 0 rev_links
  in
  let bad = ref 0 and total = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun c ->
          match Bgp.as_path bgp c p with
          | None -> ()
          | Some path ->
            incr total;
            if not (check_path path) then incr bad)
        w.collectors)
    (Bgp.prefixes bgp);
  Alcotest.(check int) "no valley violations" 0 !bad;
  Alcotest.(check bool) "paths checked" true (!total > 200)

let test_paths_end_at_origin () =
  let w = Lazy.force world in
  let bgp = bgp_of w in
  List.iter
    (fun p ->
      match Bgp.as_path bgp w.host_asn p with
      | None -> ()
      | Some path ->
        let origin = Option.get (Bgpdata.As_path.origin path) in
        Alcotest.(check bool)
          (Printf.sprintf "path to %s ends at an origin" (Prefix.to_string p))
          true
          (Asn.Set.mem origin (Bgp.origins bgp p)))
    (Bgp.prefixes bgp)

let test_collector_view_parses () =
  let w = Lazy.force world in
  let bgp = bgp_of w in
  let rib = Bgp.collector_view bgp w.collectors in
  Alcotest.(check bool) "rib non-empty" true (Bgpdata.Rib.cardinal rib > 50);
  match Bgpdata.Rib.of_lines (Bgpdata.Rib.to_lines rib) with
  | Error e -> Alcotest.fail e
  | Ok rib' -> Alcotest.(check int) "roundtrip" (Bgpdata.Rib.cardinal rib) (Bgpdata.Rib.cardinal rib')

let test_hidden_peers_invisible () =
  let w = Lazy.force world in
  let bgp = bgp_of w in
  let rib = Bgp.collector_view bgp w.collectors in
  let inferred = Bgpdata.Rel_infer.infer (Bgpdata.Rib.all_paths rib) in
  let truth = Gen.host_neighbor_truth w in
  (* At least one true peer of the host must be invisible in the public
     view: its prefixes reach collectors via its transit, not via the
     host. This is the precondition for the paper's hidden-peer rows. *)
  let hidden =
    Asn.Map.fold
      (fun asn kind acc ->
        if kind = `Peer && not (Bgpdata.As_rel.known inferred w.host_asn asn) then
          asn :: acc
        else acc)
      truth []
  in
  Alcotest.(check bool) "some hidden peers exist" true (hidden <> [])

let test_moas_origins () =
  let w = Lazy.force world in
  let bgp = bgp_of w in
  List.iter
    (fun (p, extra_origin) ->
      Alcotest.(check bool)
        (Printf.sprintf "moas prefix %s has two origins" (Prefix.to_string p))
        true
        (Asn.Set.cardinal (Bgp.origins bgp p) >= 2);
      Alcotest.(check bool) "extra origin recorded" true
        (Asn.Set.mem extra_origin (Bgp.origins bgp p)))
    w.moas

let proj = Bgp_ref.proj

(* The snapshot and a Bgp.t attached to it answer every (AS, prefix)
   route exactly like the boxed reference model in bgp_ref.ml. *)
let test_snapshot_route_equivalence () =
  let w = Lazy.force world in
  let snap = bgp_of w in
  let attached = Bgp.of_snapshot snap in
  let reference = Bgp_ref.of_world w in
  let asns = Bgp_ref.asns reference in
  Alcotest.(check int) "prefix_count" (List.length reference.Bgp_ref.prefixes)
    (Bgp.Snapshot.prefix_count snap);
  Alcotest.(check int) "asn_count is the reference's AS set" (List.length asns)
    (Bgp.Snapshot.asn_count snap);
  Alcotest.(check bool) "prefixes agree" true
    (Bgp.prefixes snap = reference.Bgp_ref.prefixes);
  List.iter
    (fun p ->
      List.iter
        (fun asn ->
          let expect = proj (Bgp_ref.route reference asn p) in
          let check what got =
            Alcotest.(check bool)
              (Printf.sprintf "%s AS%d %s" what asn (Prefix.to_string p))
              true (proj got = expect)
          in
          check "snapshot route" (Bgp.route snap asn p);
          check "of_snapshot route" (Bgp.route attached asn p))
        asns)
    reference.Bgp_ref.prefixes

let test_snapshot_lookup_and_paths () =
  let w = Lazy.force world in
  let snap = bgp_of w in
  let reference = Bgp_ref.of_world w in
  let probes =
    Ipv4.of_string_exn "203.0.113.9"
    :: List.concat_map
         (fun p -> [ Prefix.first p; Ipv4.add (Prefix.first p) 1; Prefix.last p ])
         reference.Bgp_ref.prefixes
  in
  let lproj = Option.map (fun (p, r) -> (p, proj r)) in
  List.iter
    (fun addr ->
      let expect = lproj (Bgp_ref.lookup reference w.host_asn addr) in
      Alcotest.(check bool)
        (Printf.sprintf "snapshot lookup %s" (Ipv4.to_string addr))
        true
        (lproj (Bgp.lookup snap w.host_asn addr) = expect))
    probes;
  List.iter
    (fun p ->
      List.iter
        (fun asn ->
          let expect = Bgp_ref.as_path reference asn p in
          Alcotest.(check bool)
            (Printf.sprintf "snapshot as_path AS%d %s" asn (Prefix.to_string p))
            true
            (Bgp.as_path snap asn p = expect))
        (w.host_asn :: w.collectors))
    reference.Bgp_ref.prefixes

let suite =
  [ Alcotest.test_case "all prefixes reachable from host" `Quick
      test_all_prefixes_reachable_from_host;
    Alcotest.test_case "route class preferences" `Quick test_route_class_preferences;
    Alcotest.test_case "valley-free paths" `Quick test_valley_free_paths;
    Alcotest.test_case "paths end at origin" `Quick test_paths_end_at_origin;
    Alcotest.test_case "collector view parses" `Quick test_collector_view_parses;
    Alcotest.test_case "hidden peers invisible in public view" `Quick
      test_hidden_peers_invisible;
    Alcotest.test_case "moas origins" `Quick test_moas_origins;
    Alcotest.test_case "snapshot route equivalence" `Quick
      test_snapshot_route_equivalence;
    Alcotest.test_case "snapshot lookup and paths" `Quick
      test_snapshot_lookup_and_paths ]
