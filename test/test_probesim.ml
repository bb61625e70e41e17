open Netcore
module Net = Topogen.Net
module Gen = Topogen.Gen
module Engine = Probesim.Engine

let setup = lazy (
  let w = Gen.generate Topogen.Scenario.tiny in
  let bgp =
    Routing.Bgp.freeze
      (Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
         ~selective:w.Gen.selective)
  in
  let fwd = Routing.Forwarding.create w.Gen.net bgp in
  (w, Engine.create w fwd))

let vp (w : Gen.world) = List.hd w.vps

let find_as_with_filter w f =
  List.find_opt (fun (n : Net.as_node) -> n.Net.filter = f && n.Net.prefixes <> []) (Net.ases w.Gen.net)

let test_traceroute_hops_are_real () =
  let w, eng = Lazy.force setup in
  let open_as = Option.get (find_as_with_filter w Net.Open) in
  let dst = Ipv4.add (Prefix.first (List.hd open_as.Net.prefixes)) 1 in
  let hops = Engine.traceroute eng ~vp:(vp w) ~dst () in
  Alcotest.(check bool) "has hops" true (List.length hops > 2);
  List.iter
    (fun (h : Engine.hop) ->
      match h.reply with
      | None -> ()
      | Some r ->
        let router = Net.router w.Gen.net r.Engine.responder in
        (* The reported source address must exist on the responding
           router (canonical included). *)
        Alcotest.(check bool) "src on responder" true
          (List.exists (fun (i : Net.iface) -> Ipv4.equal i.Net.addr r.Engine.src) router.Net.ifaces
          || router.Net.canonical = Some r.Engine.src
          || Ipv4.equal r.Engine.src dst))
    hops

let test_first_hop_in_host_as () =
  let w, eng = Lazy.force setup in
  let open_as = Option.get (find_as_with_filter w Net.Open) in
  let dst = Ipv4.add (Prefix.first (List.hd open_as.Net.prefixes)) 1 in
  match Engine.traceroute eng ~vp:(vp w) ~dst () with
  | { reply = Some r; _ } :: _ ->
    Alcotest.(check int) "first responder in host AS" w.host_asn
      (Net.router w.Gen.net r.Engine.responder).Net.owner
  | _ -> Alcotest.fail "first hop silent"

let test_firewalled_as_truncates () =
  let w, eng = Lazy.force setup in
  match find_as_with_filter w Net.Firewall with
  | None -> ()  (* tiny world may lack one; other scenarios cover it *)
  | Some node ->
    let dst = Ipv4.add (Prefix.first (List.hd node.Net.prefixes)) 1 in
    let hops = Engine.traceroute eng ~vp:(vp w) ~dst () in
    let responders =
      List.filter_map
        (fun (h : Engine.hop) ->
          Option.map (fun (r : Engine.reply) -> r.Engine.responder) h.reply)
        hops
    in
    (* At most one responding router inside the firewalled AS (its
       border), and no echo reply from the destination. *)
    let inside =
      List.filter
        (fun rid -> Asn.equal (Net.router w.Gen.net rid).Net.owner node.Net.asn)
        responders
    in
    Alcotest.(check bool) "at most the border responds" true
      (List.length (List.sort_uniq compare inside) <= 1);
    Alcotest.(check bool) "no echo reply" true
      (List.for_all
         (fun (h : Engine.hop) ->
           match h.reply with
           | Some { kind = Engine.Echo_reply; _ } -> false
           | _ -> true)
         hops)

let test_silent_as_is_silent () =
  let w, eng = Lazy.force setup in
  match find_as_with_filter w Net.Silent with
  | None -> ()
  | Some node ->
    let dst = Ipv4.add (Prefix.first (List.hd node.Net.prefixes)) 1 in
    let hops = Engine.traceroute eng ~vp:(vp w) ~dst () in
    List.iter
      (fun (h : Engine.hop) ->
        match h.reply with
        | None -> ()
        | Some r ->
          Alcotest.(check bool) "no reply from silent AS" true
            (not (Asn.equal (Net.router w.Gen.net r.Engine.responder).Net.owner node.Net.asn)))
      hops

let test_ping_echo () =
  let w, eng = Lazy.force setup in
  (* Ping a host-AS interface: must reply with src = probed addr. *)
  let host_router =
    List.find
      (fun (r : Net.router) -> r.Net.behavior.echo && r.Net.ifaces <> [])
      (Net.routers_of w.Gen.net w.host_asn)
  in
  let addr = (List.hd host_router.Net.ifaces).Net.addr in
  match Engine.ping eng ~dst:addr with
  | None -> Alcotest.fail "host router did not answer ping"
  | Some r ->
    Alcotest.(check string) "echo src is probed addr" (Ipv4.to_string addr)
      (Ipv4.to_string r.Engine.src);
    Alcotest.(check bool) "kind" true (r.Engine.kind = Engine.Echo_reply)

let test_ping_unknown_addr () =
  let _, eng = Lazy.force setup in
  Alcotest.(check bool) "no reply from unassigned addr" true
    (Engine.ping eng ~dst:(Ipv4.of_string_exn "203.0.113.99") = None)

let test_udp_canonical () =
  let w, eng = Lazy.force setup in
  (* Find a router with Canonical udp mode and two interfaces: probing
     both addrs yields the same source. *)
  let candidate =
    List.find_opt
      (fun (r : Net.router) ->
        r.Net.behavior.udp = Net.Canonical
        && List.length r.Net.ifaces >= 2
        && (Net.as_node w.Gen.net r.Net.owner).Net.filter = Net.Open)
      (List.init (Net.router_count w.Gen.net) (Net.router w.Gen.net))
  in
  match candidate with
  | None -> Alcotest.fail "no canonical-udp router in tiny world"
  | Some r ->
    let a = (List.nth r.Net.ifaces 0).Net.addr in
    let b = (List.nth r.Net.ifaces 1).Net.addr in
    let sa = Engine.udp_probe eng ~dst:a and sb = Engine.udp_probe eng ~dst:b in
    (match (sa, sb) with
    | Some ra, Some rb ->
      Alcotest.(check string) "same canonical source" (Ipv4.to_string ra.Engine.src)
        (Ipv4.to_string rb.Engine.src)
    | _ -> Alcotest.fail "canonical router did not answer udp")

let test_shared_counter_monotone () =
  let w, eng = Lazy.force setup in
  let candidate =
    List.find
      (fun (r : Net.router) ->
        r.Net.behavior.ipid = Net.Shared_counter
        && List.length r.Net.ifaces >= 2
        && r.Net.behavior.echo
        && (Net.as_node w.Gen.net r.Net.owner).Net.filter = Net.Open)
      (List.init (Net.router_count w.Gen.net) (Net.router w.Gen.net))
  in
  let a = (List.nth candidate.Net.ifaces 0).Net.addr in
  let b = (List.nth candidate.Net.ifaces 1).Net.addr in
  let ids = ref [] in
  for _ = 1 to 5 do
    (match Engine.ping eng ~dst:a with
    | Some r -> ids := r.Engine.ipid :: !ids
    | None -> Alcotest.fail "ping a failed");
    match Engine.ping eng ~dst:b with
    | Some r -> ids := r.Engine.ipid :: !ids
    | None -> Alcotest.fail "ping b failed"
  done;
  Alcotest.(check bool) "merged ids monotonic" true
    (Aliasres.Ally.monotonic (List.rev !ids))

let test_clock_advances () =
  let w, eng = Lazy.force setup in
  ignore w;
  let t0 = Engine.now eng in
  let c0 = Engine.probe_count eng in
  ignore (Engine.ping eng ~dst:(Ipv4.of_string_exn "203.0.113.1"));
  Alcotest.(check bool) "clock advanced" true (Engine.now eng > t0);
  Alcotest.(check int) "probe counted" (c0 + 1) (Engine.probe_count eng);
  Engine.advance eng 300.0;
  Alcotest.(check bool) "manual advance" true (Engine.now eng >= t0 +. 300.0)

let test_echo_reply_on_delivery () =
  let w, eng = Lazy.force setup in
  (* Traceroute to an actual interface of an open AS: the last hop must
     be an echo reply sourced from the probed address. *)
  let open_as =
    List.find
      (fun (n : Net.as_node) ->
        n.Net.filter = Net.Open && n.Net.asn <> w.host_asn
        && Net.routers_of w.Gen.net n.Net.asn <> [])
      (Net.ases w.Gen.net)
  in
  let r =
    List.find
      (fun (r : Net.router) -> r.Net.behavior.echo && r.Net.ifaces <> [])
      (Net.routers_of w.Gen.net open_as.Net.asn)
  in
  let dst = (List.hd r.Net.ifaces).Net.addr in
  let hops = Engine.traceroute eng ~vp:(vp w) ~dst () in
  match List.rev hops with
  | { reply = Some { kind = Engine.Echo_reply; src; _ }; _ } :: _ ->
    Alcotest.(check string) "echo src" (Ipv4.to_string dst) (Ipv4.to_string src)
  | _ -> Alcotest.fail "no echo reply at path end"

let test_paris_vs_classic () =
  let w, eng = Lazy.force setup in
  (* Paris keeps one flow per trace: repeated runs yield identical hop
     sequences. Classic varies the flow per TTL and can mix equal-cost
     path arms, creating adjacencies that no single packet ever took. *)
  let dsts =
    List.filter_map
      (fun (n : Net.as_node) ->
        match n.Net.prefixes with
        | p :: _ when n.Net.asn <> w.host_asn -> Some (Ipv4.add (Prefix.first p) 1)
        | _ -> None)
      (Net.ases w.Gen.net)
  in
  let seq paris dst =
    List.filter_map
      (fun (h : Engine.hop) ->
        Option.map (fun (r : Engine.reply) -> r.Engine.responder) h.reply)
      (Engine.traceroute ~paris eng ~vp:(vp w) ~dst ())
  in
  List.iter
    (fun dst ->
      Alcotest.(check (list int)) "paris stable across runs" (seq true dst)
        (seq true dst))
    dsts;
  (* At least one destination must show a flow-dependent internal path. *)
  let bgp =
    Routing.Bgp.freeze
      (Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
         ~selective:w.Gen.selective)
  in
  let fwd = Routing.Forwarding.create w.Gen.net bgp in
  let rids flow dst =
    List.map
      (fun (s : Routing.Forwarding.step) -> s.Routing.Forwarding.rid)
      (Routing.Forwarding.path ~flow fwd ~src_rid:(vp w).Gen.vp_rid ~dst ())
  in
  let flow_sensitive = List.exists (fun dst -> rids 1 dst <> rids 2 dst) dsts in
  Alcotest.(check bool) "equal-cost diamonds exist" true flow_sensitive

(* ------------------------------------------------------------------ *)
(* Forward-path cache counters and response-pathology edge cases.      *)

let fresh_engine ?cache_cap (w : Gen.world) =
  let bgp =
    Routing.Bgp.freeze
      (Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
         ~selective:w.Gen.selective)
  in
  let fwd = Routing.Forwarding.create w.Gen.net bgp in
  Engine.create ?cache_cap w fwd

(* A tiny-sized world where the rare edge filters are common, so the
   echo-only / firewalled / silent direct-probe cases all exist. *)
let edge_setup = lazy (
  let params =
    { Topogen.Scenario.tiny with
      Gen.name = "tiny-edge";
      p_cust_firewall = 0.25;
      p_cust_silent = 0.15;
      p_cust_echo_only = 0.30 }
  in
  let w = Gen.generate params in
  (w, fresh_engine w))

let open_dst w =
  let open_as = Option.get (find_as_with_filter w Net.Open) in
  Ipv4.add (Prefix.first (List.hd open_as.Net.prefixes)) 1

let test_cache_stats_counting () =
  let w, _ = Lazy.force setup in
  let eng = fresh_engine w in
  let dst = open_dst w in
  let s0 = Engine.stats eng in
  Alcotest.(check int) "fresh: no hits" 0 s0.Engine.hits;
  Alcotest.(check int) "fresh: no misses" 0 s0.Engine.misses;
  Alcotest.(check int) "fresh: empty" 0 s0.Engine.entries;
  let hops = Engine.traceroute eng ~vp:(vp w) ~dst () in
  let s1 = Engine.stats eng in
  (* Paris traceroute: one flow, one dst => a single forward-path
     computation however many TTLs were probed. *)
  Alcotest.(check int) "one path computed" 1 s1.Engine.misses;
  Alcotest.(check int) "every later ttl hits" (List.length hops - 1)
    s1.Engine.hits;
  Alcotest.(check int) "one entry" 1 s1.Engine.entries;
  Alcotest.(check int) "no evictions" 0 s1.Engine.evictions;
  ignore (Engine.traceroute eng ~vp:(vp w) ~dst ());
  let s2 = Engine.stats eng in
  Alcotest.(check int) "retrace misses nothing" 1 s2.Engine.misses

let test_cache_eviction_rotation () =
  let w, _ = Lazy.force setup in
  (* cache_cap=2 with classic (per-TTL flow) traces: every TTL is a new
     key, so the young generation rotates repeatedly and the second and
     later rotations discard the old generation. *)
  let eng = fresh_engine ~cache_cap:2 w in
  ignore (Engine.traceroute ~paris:false eng ~vp:(vp w) ~dst:(open_dst w) ());
  let s = Engine.stats eng in
  Alcotest.(check bool) "many distinct keys" true (s.Engine.misses > 4);
  Alcotest.(check bool) "rotation discarded entries" true
    (s.Engine.evictions > 0);
  Alcotest.(check bool) "footprint bounded by two generations" true
    (s.Engine.entries <= 4);
  (* Conservation: every key computed is either still resident or was
     discarded by a rotation. *)
  Alcotest.(check bool) "miss = entries + evicted + promoted" true
    (s.Engine.misses >= s.Engine.entries)

let test_old_generation_promotion () =
  let w, _ = Lazy.force setup in
  let eng = fresh_engine ~cache_cap:1 w in
  let dst = open_dst w in
  (* flow 0 fills young; flow 1 rotates it into old; re-probing flow 0
     must hit (old-generation lookup), not recompute. *)
  ignore (Engine.trace_probe ~flow:0 eng ~vp:(vp w) ~dst ~ttl:1);
  ignore (Engine.trace_probe ~flow:1 eng ~vp:(vp w) ~dst ~ttl:1);
  let before = (Engine.stats eng).Engine.misses in
  ignore (Engine.trace_probe ~flow:0 eng ~vp:(vp w) ~dst ~ttl:1);
  let s = Engine.stats eng in
  Alcotest.(check int) "promoted, not recomputed" before s.Engine.misses;
  Alcotest.(check bool) "hit recorded" true (s.Engine.hits > 0)

let test_gap_limit_truncates () =
  let w, eng = Lazy.force edge_setup in
  match find_as_with_filter w Net.Silent with
  | None -> Alcotest.fail "edge world must contain a silent AS"
  | Some node ->
    let dst = Ipv4.add (Prefix.first (List.hd node.Net.prefixes)) 1 in
    let trailing_silence gap_limit =
      let hops = Engine.traceroute eng ~vp:(vp w) ~dst ~gap_limit () in
      let rec count = function
        | { Engine.reply = None; _ } :: rest -> 1 + count rest
        | _ -> 0
      in
      (List.length hops, count (List.rev hops))
    in
    let len2, gaps2 = trailing_silence 2 in
    let len6, gaps6 = trailing_silence 6 in
    (* The trace into a silent network ends with exactly [gap_limit]
       unanswered probes: scamper gives up then, not at max_ttl. *)
    Alcotest.(check int) "gap_limit=2 stops after 2 gaps" 2 gaps2;
    Alcotest.(check int) "gap_limit=6 stops after 6 gaps" 6 gaps6;
    Alcotest.(check int) "same responsive prefix" (len6 - 6) (len2 - 2)

let test_echo_only_edge () =
  let w, eng = Lazy.force edge_setup in
  match find_as_with_filter w Net.Echo_only with
  | None -> Alcotest.fail "edge world must contain an echo-only AS"
  | Some node ->
    let dst = Ipv4.add (Prefix.first (List.hd node.Net.prefixes)) 1 in
    let hops = Engine.traceroute eng ~vp:(vp w) ~dst () in
    (* No TTL-expired ever emerges from inside the echo-only network
       (step 8.2 of 5.4.8 relies on exactly this signature). *)
    List.iter
      (fun (h : Engine.hop) ->
        match h.reply with
        | Some { kind = Engine.Ttl_expired; responder; _ } ->
          Alcotest.(check bool) "no ttl-expired from echo-only AS" true
            (not (Asn.equal (Net.router w.Gen.net responder).Net.owner node.Net.asn))
        | _ -> ())
      hops;
    (* Its border still answers direct echo probes. *)
    let border =
      List.find_opt
        (fun (r : Net.router) ->
          r.Net.behavior.echo
          && List.exists
               (fun (i : Net.iface) ->
                 (Net.link w.Gen.net i.Net.link).Net.kind <> Net.Internal)
               r.Net.ifaces)
        (Net.routers_of w.Gen.net node.Net.asn)
    in
    (match border with
    | None -> ()
    | Some r ->
      let addr = (List.hd r.Net.ifaces).Net.addr in
      (match Engine.ping eng ~dst:addr with
      | Some reply ->
        Alcotest.(check bool) "border echo reply" true
          (reply.Engine.kind = Engine.Echo_reply)
      | None -> Alcotest.fail "echo-only border ignored a direct ping"))

let test_firewalled_direct_probes () =
  let w, eng = Lazy.force edge_setup in
  match find_as_with_filter w Net.Firewall with
  | None -> Alcotest.fail "edge world must contain a firewalled AS"
  | Some node ->
    let is_border (r : Net.router) =
      List.exists
        (fun (i : Net.iface) ->
          (Net.link w.Gen.net i.Net.link).Net.kind <> Net.Internal)
        r.Net.ifaces
    in
    let routers = Net.routers_of w.Gen.net node.Net.asn in
    (* Interior routers are shielded from direct probes entirely. *)
    List.iter
      (fun (r : Net.router) ->
        if not (is_border r) then
          List.iter
            (fun (i : Net.iface) ->
              Alcotest.(check bool) "interior ping unanswered" true
                (Engine.ping eng ~dst:i.Net.addr = None);
              Alcotest.(check bool) "interior udp unanswered" true
                (Engine.udp_probe eng ~dst:i.Net.addr = None))
            r.Net.ifaces)
      routers;
    (* A border router with echo behaviour remains exposed. *)
    (match
       List.find_opt (fun r -> is_border r && r.Net.behavior.echo) routers
     with
    | None -> ()
    | Some r ->
      let addr = (List.hd r.Net.ifaces).Net.addr in
      Alcotest.(check bool) "border still answers" true
        (Engine.ping eng ~dst:addr <> None))

let suite =
  [ Alcotest.test_case "traceroute hops are real" `Quick test_traceroute_hops_are_real;
    Alcotest.test_case "paris vs classic" `Quick test_paris_vs_classic;
    Alcotest.test_case "first hop in host AS" `Quick test_first_hop_in_host_as;
    Alcotest.test_case "firewall truncates" `Quick test_firewalled_as_truncates;
    Alcotest.test_case "silent AS is silent" `Quick test_silent_as_is_silent;
    Alcotest.test_case "ping echo semantics" `Quick test_ping_echo;
    Alcotest.test_case "ping unknown addr" `Quick test_ping_unknown_addr;
    Alcotest.test_case "udp canonical source" `Quick test_udp_canonical;
    Alcotest.test_case "shared counter monotone" `Quick test_shared_counter_monotone;
    Alcotest.test_case "clock advances" `Quick test_clock_advances;
    Alcotest.test_case "echo reply on delivery" `Quick test_echo_reply_on_delivery;
    Alcotest.test_case "cache stats counting" `Quick test_cache_stats_counting;
    Alcotest.test_case "cache eviction rotation" `Quick test_cache_eviction_rotation;
    Alcotest.test_case "old generation promotion" `Quick test_old_generation_promotion;
    Alcotest.test_case "gap limit truncates" `Quick test_gap_limit_truncates;
    Alcotest.test_case "echo-only edge" `Quick test_echo_only_edge;
    Alcotest.test_case "firewalled direct probes" `Quick test_firewalled_direct_probes ]
