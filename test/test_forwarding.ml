open Netcore
module Net = Topogen.Net
module Gen = Topogen.Gen
module Fwd = Routing.Forwarding

let setup = lazy (
  let w = Gen.generate Topogen.Scenario.tiny in
  let bgp =
    Routing.Bgp.freeze
      (Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
         ~selective:w.Gen.selective)
  in
  (w, bgp, Fwd.create w.Gen.net bgp))

let first_addrs w =
  List.filter_map
    (fun (p, origins) ->
      if Asn.Set.mem w.Gen.host_asn origins then None
      else Some (Ipv4.add (Prefix.first p) 1))
    (Gen.originated w)

let test_paths_connected () =
  let w, _, fwd = Lazy.force setup in
  let vp = List.hd w.vps in
  List.iter
    (fun dst ->
      let path = Fwd.path fwd ~src_rid:vp.vp_rid ~dst () in
      let rec check prev = function
        | [] -> ()
        | (s : Fwd.step) :: rest ->
          (match s.in_link with
          | None -> Alcotest.fail "non-source step lacks in_link"
          | Some l ->
            let a = fst l.Net.a and b = fst l.Net.b in
            Alcotest.(check bool) "link connects prev to cur" true
              ((a = prev && b = s.rid) || (b = prev && a = s.rid)));
          check s.rid rest
      in
      check vp.vp_rid path)
    (first_addrs w)

let test_paths_reach_origin_as () =
  let w, bgp, fwd = Lazy.force setup in
  let vp = List.hd w.vps in
  let reached = ref 0 and total = ref 0 in
  List.iter
    (fun dst ->
      incr total;
      let path = Fwd.path fwd ~src_rid:vp.vp_rid ~dst () in
      match List.rev path with
      | [] -> ()
      | last :: _ ->
        let owner = (Net.router w.net last.Fwd.rid).Net.owner in
        let origins =
          match Routing.Bgp.lookup bgp w.host_asn dst with
          | Some (p, _) -> Routing.Bgp.origins bgp p
          | None -> Asn.Set.empty
        in
        if Asn.Set.mem owner origins then incr reached)
    (first_addrs w);
  (* Relationship-only sibling prefixes terminate on host routers, so a
     small shortfall is expected. *)
  Alcotest.(check bool)
    (Printf.sprintf "most paths end in origin AS (%d/%d)" !reached !total)
    true
    (float_of_int !reached >= 0.85 *. float_of_int !total)

let test_first_hops_in_host () =
  let w, _, fwd = Lazy.force setup in
  List.iter
    (fun (vp : Gen.vp) ->
      List.iter
        (fun dst ->
          match Fwd.path fwd ~src_rid:vp.vp_rid ~dst () with
          | [] -> ()
          | first :: _ ->
            Alcotest.(check int) "first hop in host AS" w.host_asn
              (Net.router w.net first.Fwd.rid).Net.owner)
        (List.filteri (fun i _ -> i < 20) (first_addrs w)))
    w.vps

let test_deliver_to_interface () =
  let w, _, fwd = Lazy.force setup in
  let vp = List.hd w.vps in
  (* Pick a far interdomain interface address and expect delivery. *)
  let l = List.hd (Net.interdomain_links w.net) in
  let dst = snd l.Net.a in
  let path = Fwd.path fwd ~src_rid:vp.vp_rid ~dst () in
  match List.rev path with
  | [] -> Alcotest.fail "no path to interface addr"
  | last :: _ ->
    let r = Net.router w.net last.Fwd.rid in
    Alcotest.(check bool) "delivered to a router holding or adjacent to addr" true
      (List.exists (fun (i : Net.iface) -> Ipv4.equal i.Net.addr dst) r.Net.ifaces
      || List.exists
           (fun ((l : Net.link), _) ->
             Ipv4.equal (snd l.Net.a) dst || Ipv4.equal (snd l.Net.b) dst)
           (Net.neighbors w.net last.Fwd.rid))

let test_hot_potato_prefers_near_egress () =
  let w, _, fwd = Lazy.force setup in
  (* For the big peer (links in several cities), each VP must use an
     egress whose IGP distance is minimal among that prefix's candidates. *)
  let peer_node = Net.as_node w.net w.big_peer in
  let target = Ipv4.add (Prefix.first (List.hd peer_node.Net.prefixes)) 1 in
  List.iter
    (fun (vp : Gen.vp) ->
      match Fwd.egress_link fwd ~rid:vp.vp_rid ~dst:target with
      | None -> Alcotest.fail "no egress for big peer prefix"
      | Some l ->
        let near =
          if Asn.equal (Net.router w.net (fst l.Net.a)).Net.owner w.host_asn then fst l.Net.a
          else fst l.Net.b
        in
        let d = Fwd.igp_distance fwd ~from_rid:vp.vp_rid ~to_rid:near in
        List.iter
          (fun (l' : Net.link) ->
            let near' =
              if Asn.equal (Net.router w.net (fst l'.Net.a)).Net.owner w.host_asn then
                fst l'.Net.a
              else fst l'.Net.b
            in
            let d' = Fwd.igp_distance fwd ~from_rid:vp.vp_rid ~to_rid:near' in
            Alcotest.(check bool)
              (Printf.sprintf "%s egress is nearest" vp.vp_name)
              true (d <= d' +. 1e-9))
          (Net.interdomain_links_between w.net w.host_asn w.big_peer))
    w.vps

let test_igp_distance_properties () =
  let w, _, fwd = Lazy.force setup in
  let host_routers = Net.routers_of w.net w.host_asn in
  let r1 = List.hd host_routers and r2 = List.nth host_routers 3 in
  Alcotest.(check (float 0.001)) "self distance" 0.0
    (Fwd.igp_distance fwd ~from_rid:r1.Net.rid ~to_rid:r1.Net.rid);
  let d12 = Fwd.igp_distance fwd ~from_rid:r1.Net.rid ~to_rid:r2.Net.rid in
  let d21 = Fwd.igp_distance fwd ~from_rid:r2.Net.rid ~to_rid:r1.Net.rid in
  Alcotest.(check bool) "symmetric" true (abs_float (d12 -. d21) < 1e-9);
  Alcotest.(check bool) "finite inside AS" true (d12 < infinity);
  (* Cross-AS distance is infinite. *)
  let foreign =
    List.find
      (fun (r : Net.router) -> not (Asn.equal r.Net.owner w.host_asn))
      (List.init (Net.router_count w.net) (Net.router w.net))
  in
  Alcotest.(check bool) "cross-AS infinite" true
    (Fwd.igp_distance fwd ~from_rid:r1.Net.rid ~to_rid:foreign.Net.rid = infinity)

let test_reply_iface_on_router () =
  let w, _, fwd = Lazy.force setup in
  let vp = List.hd w.vps in
  let checked = ref 0 in
  List.iter
    (fun dst ->
      let path = Fwd.path fwd ~src_rid:vp.vp_rid ~dst () in
      List.iter
        (fun (s : Fwd.step) ->
          match Fwd.reply_iface fwd ~rid:s.Fwd.rid ~reply_to:vp.vp_addr with
          | None -> ()
          | Some addr ->
            incr checked;
            let r = Net.router w.net s.Fwd.rid in
            Alcotest.(check bool) "reply iface belongs to router" true
              (List.exists (fun (i : Net.iface) -> Ipv4.equal i.Net.addr addr) r.Net.ifaces))
        path)
    (List.filteri (fun i _ -> i < 15) (first_addrs w));
  Alcotest.(check bool) "reply ifaces checked" true (!checked > 20)

let test_selective_prefix_pinned () =
  let w, bgp, fwd = Lazy.force setup in
  (* For a pinned CDN prefix, every VP must exit via an allowed link. *)
  let pinned =
    Asn.Map.fold
      (fun origin per_prefix acc ->
        Prefix.Map.fold (fun p lids acc -> (origin, p, lids) :: acc) per_prefix acc)
      w.selective []
  in
  Alcotest.(check bool) "some pinned prefixes exist" true (pinned <> []);
  List.iter
    (fun (origin, p, lids) ->
      ignore origin;
      let dst = Ipv4.add (Prefix.first p) 1 in
      List.iter
        (fun (vp : Gen.vp) ->
          match Fwd.egress_link fwd ~rid:vp.vp_rid ~dst with
          | None -> ()
          | Some l ->
            (* Only check when the host's next hop is the pinned origin. *)
            let far =
              let ra = fst l.Net.a in
              if Asn.equal (Net.router w.net ra).Net.owner w.host_asn then fst l.Net.b
              else ra
            in
            if Asn.equal (Net.router w.net far).Net.owner origin then
              Alcotest.(check bool)
                (Printf.sprintf "%s pinned egress for %s" vp.vp_name (Prefix.to_string p))
                true (List.mem l.Net.lid lids))
        w.vps;
      ignore bgp)
    pinned

let test_frozen_plan_equivalence () =
  let w, bgp, fwd = Lazy.force setup in
  (* Freeze the shared plan exactly as the pipeline does, then check
     that a plan-backed instance forwards identically to an unplanned
     one over the same snapshot. *)
  let plan = Fwd.freeze ~egress_for:w.Gen.siblings (Fwd.create w.Gen.net bgp) in
  let fwd' = Fwd.create ~plan w.Gen.net bgp in
  let rids ss = List.map (fun (s : Fwd.step) -> s.Fwd.rid) ss in
  List.iter
    (fun (vp : Gen.vp) ->
      List.iter
        (fun dst ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s path to %s" vp.vp_name (Ipv4.to_string dst))
            (rids (Fwd.path fwd ~src_rid:vp.vp_rid ~dst ()))
            (rids (Fwd.path fwd' ~src_rid:vp.vp_rid ~dst ()));
          let lid = function None -> -1 | Some (l : Net.link) -> l.Net.lid in
          Alcotest.(check int)
            (Printf.sprintf "%s egress to %s" vp.vp_name (Ipv4.to_string dst))
            (lid (Fwd.egress_link fwd ~rid:vp.vp_rid ~dst))
            (lid (Fwd.egress_link fwd' ~rid:vp.vp_rid ~dst)))
        (List.filteri (fun i _ -> i < 25) (first_addrs w)))
    w.vps;
  (* IGP distances served from the plan match freshly computed ones. *)
  let l = List.hd (Net.interdomain_links w.net) in
  let near = fst l.Net.a in
  List.iter
    (fun (vp : Gen.vp) ->
      let d = Fwd.igp_distance fwd ~from_rid:vp.vp_rid ~to_rid:near in
      let d' = Fwd.igp_distance fwd' ~from_rid:vp.vp_rid ~to_rid:near in
      Alcotest.(check bool) "planned igp distance" true
        (d = d' || abs_float (d -. d') < 1e-9))
    w.vps

(* -- Property: the plan answers like the reference model -- *)

module Bgp = Routing.Bgp
module Evolve = Topogen.Evolve

let fresh_bgp (w : Gen.world) =
  Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
    ~selective:w.Gen.selective

(* Every same-AS router pair's IGP distance, bit for bit, and for every
   sibling-AS router (through the plan's egress rows) plus [others]
   (through the private memo) the egress link toward the first and last
   address of each prefix slot, against [Fwd_ref] on the same snapshot. *)
let check_against_ref ~what (w : Gen.world) snap plan ~others =
  let net = w.Gen.net and bgp = Bgp.of_snapshot snap in
  let fwd = Fwd.create ~plan net bgp and reference = Fwd_ref.create net bgp in
  let members asn = List.map (fun (r : Net.router) -> r.Net.rid) (Net.routers_of net asn) in
  Asn.Set.iter
    (fun asn ->
      let rids = members asn in
      List.iter
        (fun from_rid ->
          List.iter
            (fun to_rid ->
              let got = Fwd.igp_distance fwd ~from_rid ~to_rid
              and want = Fwd_ref.igp_distance reference ~from_rid ~to_rid in
              if not (Float.equal got want) then
                QCheck.Test.fail_reportf "%s: igp distance %d -> %d: plan %h, reference %h" what
                  from_rid to_rid got want)
            rids)
        rids)
    (Net.asns net);
  let lid = function None -> -1 | Some (l : Net.link) -> l.Net.lid in
  let dsts = List.concat_map (fun p -> [ Prefix.first p; Prefix.last p ]) (Bgp.prefixes bgp) in
  let check_egress rids =
    List.iter
      (fun rid ->
        List.iter
          (fun dst ->
            let got = lid (Fwd.egress_link fwd ~rid ~dst)
            and want = lid (Fwd_ref.egress_link reference ~rid ~dst) in
            if got <> want then
              QCheck.Test.fail_reportf "%s: egress of router %d toward %s: plan %d, reference %d"
                what rid (Ipv4.to_string dst) got want)
          dsts)
      rids
  in
  check_egress (List.concat_map members (Asn.Set.elements w.Gen.siblings) @ others)

(* A corpus world at scale 0.1 with its snapshot and scratch plan.
   Evolve mutates a world's net in place, so every evolution starts
   from a freshly generated copy. With [cut], the first VP's router
   loses its internal links, partitioning its AS: every egress
   candidate lies at infinite IGP distance from it. *)
let corpus_world ?(cut = false) (s : Topogen.Corpus.scenario) =
  let w = Gen.generate (s.Topogen.Corpus.sc_params ~scale:0.1) in
  if cut then
    List.iter
      (fun ((l : Net.link), _) -> Net.remove_link w.Gen.net l.Net.lid)
      (Net.internal_neighbors w.Gen.net (List.hd w.Gen.vps).Gen.vp_rid);
  let snap = Bgp.freeze (fresh_bgp w) in
  (w, snap, Fwd.freeze ~egress_for:w.Gen.siblings (Fwd.create w.Gen.net (Bgp.of_snapshot snap)))

(* On every corpus world at scale 0.1, on each of them with its first
   VP cut off inside its AS, and on each after one forced event of
   every Evolve class (site drawn from the seed), the plan answers like
   the reference model: for an evolved world both the patch of the
   pre-event plan and a scratch freeze. The seed also picks the routers
   whose egress is checked through the private memo. *)
let prop_plan_matches_reference =
  QCheck.Test.make ~name:"plan = reference model on corpus worlds and their evolutions" ~count:2
    QCheck.(make ~print:Print.int ~shrink:Shrink.int Gen.(int_bound 1_000_000))
    (fun seed ->
      List.iter
        (fun scenario ->
          let name = scenario.Topogen.Corpus.sc_name in
          let st = Random.State.make [| seed |] in
          let sample (w : Gen.world) =
            List.init 8 (fun _ -> Random.State.int st (Net.router_count w.Gen.net))
          in
          let w, snap, plan = corpus_world scenario in
          check_against_ref ~what:name w snap plan ~others:(sample w);
          let w, snap, plan = corpus_world ~cut:true scenario in
          check_against_ref ~what:(name ^ " cut") w snap plan ~others:(sample w);
          List.iter
            (fun kind ->
              let w, snap, plan = corpus_world scenario in
              let rec force s =
                if s > seed + 50 then None
                else match Evolve.force ~seed:s kind w with Some r -> Some r | None -> force (s + 1)
              in
              match force seed with
              | None -> ()
              | Some (w', te) ->
                let what = name ^ " + " ^ Evolve.kind_label kind in
                let churn = Bgp.churn_of_events [ te ] in
                let snap', stats = Bgp.refreeze (fresh_bgp w') ~old:snap churn in
                let fwd' = Fwd.create w'.Gen.net (Bgp.of_snapshot snap') in
                let patched =
                  Fwd.patch ~egress_for:w'.Gen.siblings fwd' ~old:plan ~churn
                    ~dirty:stats.Bgp.rf_dirty_prefixes
                in
                let scratch = Fwd.freeze ~egress_for:w'.Gen.siblings fwd' in
                check_against_ref ~what:(what ^ " (patch)") w' snap' patched ~others:(sample w');
                check_against_ref ~what:(what ^ " (freeze)") w' snap' scratch ~others:[])
            Evolve.all_kinds)
        Topogen.Corpus.all;
      true)

(* Selective announcements split egress columns: prefixes sharing a
   route row score apart when their origins pin different links. The
   property above holds every corpus world's plan to [Fwd_ref]; this
   test makes sure some of those worlds carry pins, and holds each of
   their snapshots to the BGP reference model. *)
let test_selective_worlds () =
  let pinned = ref 0 in
  List.iter
    (fun scenario ->
      let w = Gen.generate (scenario.Topogen.Corpus.sc_params ~scale:0.1) in
      if not (Asn.Map.is_empty w.Gen.selective) then begin
        let snap = Bgp.freeze (fresh_bgp w) in
        Array.iter (fun pins -> if pins <> [] then incr pinned) (Bgp.Snapshot.pins snap);
        match Bgp_ref.check_snapshot (Bgp_ref.of_world w) snap with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s: %s" scenario.Topogen.Corpus.sc_name m
      end)
    Topogen.Corpus.all;
  Alcotest.(check bool) "some corpus prefix is pinned" true (!pinned > 0)

let suite =
  [ Alcotest.test_case "paths are connected" `Quick test_paths_connected;
    Alcotest.test_case "paths reach origin AS" `Quick test_paths_reach_origin_as;
    Alcotest.test_case "first hops in host AS" `Quick test_first_hops_in_host;
    Alcotest.test_case "delivery to interface addr" `Quick test_deliver_to_interface;
    Alcotest.test_case "hot potato nearest egress" `Quick test_hot_potato_prefers_near_egress;
    Alcotest.test_case "igp distance" `Quick test_igp_distance_properties;
    Alcotest.test_case "reply iface on router" `Quick test_reply_iface_on_router;
    Alcotest.test_case "selective prefixes pinned" `Quick test_selective_prefix_pinned;
    Alcotest.test_case "frozen plan equivalence" `Quick test_frozen_plan_equivalence;
    Qc.to_alcotest prop_plan_matches_reference;
    Alcotest.test_case "selective corpus worlds = BGP reference" `Quick
      test_selective_worlds ]
