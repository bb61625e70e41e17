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
(* Path-memo counters and response-pathology edge cases.               *)

let fresh_engine (w : Gen.world) =
  let bgp =
    Routing.Bgp.freeze
      (Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
         ~selective:w.Gen.selective)
  in
  let fwd = Routing.Forwarding.create w.Gen.net bgp in
  Engine.create w fwd

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
  let hops = Engine.traceroute eng ~vp:(vp w) ~dst () in
  let s1 = Engine.stats eng in
  (* Paris traceroute: one flow, one dst => a single forward-path
     computation however many TTLs were probed. *)
  Alcotest.(check int) "one path computed" 1 s1.Engine.misses;
  Alcotest.(check int) "every later ttl hits" (List.length hops - 1)
    s1.Engine.hits;
  ignore (Engine.traceroute eng ~vp:(vp w) ~dst ());
  let s2 = Engine.stats eng in
  Alcotest.(check int) "retrace misses nothing" 1 s2.Engine.misses

let hop_view hops =
  List.map
    (fun (h : Engine.hop) ->
      ( h.Engine.ttl,
        Option.map
          (fun (r : Engine.reply) -> (r.Engine.src, r.Engine.kind, r.Engine.responder))
          h.Engine.reply ))
    hops

let test_per_trace_memo () =
  let w, _ = Lazy.force setup in
  let eng = fresh_engine w in
  let a = open_dst w in
  let b =
    let other =
      List.find
        (fun (n : Net.as_node) ->
          n.Net.prefixes <> [] && n.Net.asn <> w.Gen.host_asn
          && not (Prefix.mem a (List.hd n.Net.prefixes)))
        (Net.ases w.Gen.net)
    in
    Ipv4.add (Prefix.first (List.hd other.Net.prefixes)) 1
  in
  let trace dst = Engine.traceroute eng ~vp:(vp w) ~dst () in
  let first = trace a in
  let mid = trace b in
  let again = trace a in
  let s = Engine.stats eng in
  (* The memo holds the current trace only: the interleaved re-trace of
     [a] walks again, and the walk is pure, so the path is equal. *)
  Alcotest.(check int) "one miss per trace, re-trace included" 3 s.Engine.misses;
  Alcotest.(check int) "ttls - 1 hits per trace"
    (List.length first + List.length mid + List.length again - 3)
    s.Engine.hits;
  Alcotest.(check bool) "re-traced path equal" true (hop_view first = hop_view again);
  (* A probe of another flow in the middle of a trace switches paths
     and back, answering exactly as an untouched engine does. *)
  let probe e flow ttl = Engine.trace_probe ~flow e ~vp:(vp w) ~dst:a ~ttl in
  let fresh = fresh_engine w in
  let view = Option.map (fun (r : Engine.reply) -> (r.Engine.src, r.Engine.responder)) in
  List.iter
    (fun (flow, ttl) ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d ttl %d" flow ttl)
        true
        (view (probe eng flow ttl) = view (probe fresh flow ttl)))
    [ (0, 1); (0, 2); (3, 2); (0, 3); (1, 1); (0, 4) ]

(* Classic traceroute gives each TTL its own flow, so the one-path memo
   is re-walked at every TTL and never holds more than that path; the
   Paris trace that follows switches back to flow 0 once. *)
let test_per_trace_memo_classic () =
  let w, _ = Lazy.force setup in
  let eng = fresh_engine w in
  let dst = open_dst w in
  let classic = Engine.traceroute ~paris:false eng ~vp:(vp w) ~dst () in
  let s1 = Engine.stats eng in
  Alcotest.(check bool) "several ttls probed" true (List.length classic > 1);
  Alcotest.(check int) "one miss per ttl" (List.length classic) s1.Engine.misses;
  Alcotest.(check int) "no hits across flows" 0 s1.Engine.hits;
  let paris = Engine.traceroute eng ~vp:(vp w) ~dst () in
  let s2 = Engine.stats eng in
  Alcotest.(check int) "paris trace: one more miss" (s1.Engine.misses + 1)
    s2.Engine.misses;
  Alcotest.(check int) "paris trace: ttls - 1 hits" (List.length paris - 1)
    s2.Engine.hits

(* Minor words a call allocates, averaged over [n] calls. *)
let words_per_call n f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* Allocation budget of the compiled prober, on the tiny world with no
   faults. A probe answered from the current path allocates its reply
   (record and option, 7 words) and the clock tick's boxed float (2);
   a direct probe also the address lookup's option (2). A random IP-ID
   draw allocates nothing (the RNG state is unboxed), and a virtual or
   default-exit router resolves its reply interface once per hop of a
   trace. The Paris-trace bound is the mean over every TTL of one trace
   (9 words when measured), the ping and UDP bounds are for a
   shared-counter router (11 words); a re-boxed key, a boxed RNG draw
   or a per-reply route lookup breaks them. *)
let test_allocation_budget () =
  let w, _ = Lazy.force setup in
  let eng = fresh_engine w in
  let dst = open_dst w in
  let ttls = List.length (Engine.traceroute eng ~vp:(vp w) ~dst ()) in
  let hit =
    words_per_call 100 (fun () ->
        for ttl = 1 to ttls do
          ignore (Engine.trace_probe eng ~vp:(vp w) ~dst ~ttl)
        done)
    /. float_of_int ttls
  in
  let probed (r : Net.router) =
    r.Net.behavior.ipid = Net.Shared_counter
    && r.Net.ifaces <> []
    && (Net.as_node w.Gen.net r.Net.owner).Net.filter = Net.Open
  in
  let routers = List.init (Net.router_count w.Gen.net) (Net.router w.Gen.net) in
  let addr_of (r : Net.router) = (List.hd r.Net.ifaces).Net.addr in
  let echo = addr_of (List.find (fun r -> probed r && r.Net.behavior.echo) routers) in
  let udp =
    addr_of (List.find (fun r -> probed r && r.Net.behavior.udp <> Net.No_udp) routers)
  in
  let ping = words_per_call 1000 (fun () -> assert (Engine.ping eng ~dst:echo <> None)) in
  let udp = words_per_call 1000 (fun () -> assert (Engine.udp_probe eng ~dst:udp <> None)) in
  let check name budget v =
    if v > budget then
      Alcotest.failf "%s allocates %.1f minor words per probe (budget %.0f)" name v budget
  in
  check "paris-trace hit" 9.0 hit;
  check "ping" 11.0 ping;
  check "udp" 11.0 udp

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

(* ------------------------------------------------------------------ *)
(* The compiled engine against the reference model (engine_ref.ml).    *)

type op =
  | Trace of { vp : int; dst : int; flow : int; ttls : int }
  | Probe of { vp : int; dst : int; flow : int; ttl : int }
  | Ping of int
  | Udp of int
  | Advance of float

(* Every corpus world at scale 0.1 under its own fault profile, plus an
   impaired small_access world (loss, rate limits, dark quotas and link
   failures all live). Each comes with a pool of probe destinations:
   interface and canonical addresses of sampled routers, addresses
   inside originated prefixes, and unassigned space. *)
let ref_worlds =
  lazy
    (let impaired =
       { (Topogen.Scenario.small_access ~scale:0.1 ()) with
         Gen.fault = Topogen.Scenario.impairment ~intensity:0.7 }
     in
     List.map
       (fun params ->
         let w = Gen.generate params in
         let shared = Bdrmap.Pipeline.freeze_routing w in
         let net = w.Gen.net in
         let st = Random.State.make [| w.Gen.params.Gen.seed |] in
         let addrs = ref [ Ipv4.of_string_exn "203.0.113.9" ] in
         for _ = 1 to 60 do
           let r = Net.router net (Random.State.int st (Net.router_count net)) in
           List.iter (fun (i : Net.iface) -> addrs := i.Net.addr :: !addrs) r.Net.ifaces;
           Option.iter (fun c -> addrs := c :: !addrs) r.Net.canonical
         done;
         let pfx = Array.of_list (Routing.Bgp.prefixes (Routing.Bgp.of_snapshot shared.Bdrmap.Pipeline.snapshot)) in
         for _ = 1 to 60 do
           let p = pfx.(Random.State.int st (Array.length pfx)) in
           addrs := Ipv4.add (Prefix.first p) (Random.State.int st (min 8 (Prefix.size p))) :: !addrs
         done;
         (w, shared, Array.of_list !addrs))
       (impaired :: List.map (fun s -> s.Topogen.Corpus.sc_params ~scale:0.1) Topogen.Corpus.all))

let seeded_probe_ops st ~vps ~dsts =
  List.init 150 (fun _ ->
      let vp = Random.State.int st vps and dst = Random.State.int st dsts in
      let flow = Random.State.int st 4 in
      match Random.State.int st 20 with
      | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 -> Trace { vp; dst; flow; ttls = 1 + Random.State.int st 20 }
      | 8 | 9 | 10 -> Probe { vp; dst; flow; ttl = 1 + Random.State.int st 35 }
      | 11 | 12 | 13 -> Ping dst
      | 14 | 15 | 16 -> Udp dst
      | _ -> Advance [| 0.01; 0.5; 7.0; 60.0; 300.0 |].(Random.State.int st 5))

let show_reply = function
  | None -> "none"
  | Some (r : Engine.reply) ->
    Printf.sprintf "%s %s ipid=%d rid=%d" (Ipv4.to_string r.Engine.src)
      (match r.Engine.kind with
      | Engine.Ttl_expired -> "ttl-expired"
      | Engine.Echo_reply -> "echo"
      | Engine.Dest_unreach -> "unreach")
      r.Engine.ipid r.Engine.responder

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"compiled engine = reference model on corpus worlds" ~count:6
    QCheck.(make ~print:Print.int ~shrink:Shrink.int Gen.(int_bound 1_000_000))
    (fun seed ->
      List.iter
        (fun ((w : Gen.world), (shared : Bdrmap.Pipeline.shared), dsts) ->
          let fwd () =
            Routing.Forwarding.create ~plan:shared.Bdrmap.Pipeline.plan w.Gen.net
              (Routing.Bgp.of_snapshot shared.Bdrmap.Pipeline.snapshot)
          in
          let eng = Engine.create w (fwd ()) and reference = Engine_ref.create w (fwd ()) in
          let vps = Array.of_list w.Gen.vps in
          let st = Random.State.make [| seed; w.Gen.params.Gen.seed |] in
          let ops = seeded_probe_ops st ~vps:(Array.length vps) ~dsts:(Array.length dsts) in
          let same what got want =
            if got <> want then
              QCheck.Test.fail_reportf "%s, world %s: engine %s, reference %s" what
                w.Gen.params.Gen.name (show_reply got) (show_reply want)
          in
          let trace_at vp dst flow ttl =
            let vp = vps.(vp) and dst = dsts.(dst) in
            same
              (Printf.sprintf "trace to %s flow %d ttl %d" (Ipv4.to_string dst) flow ttl)
              (Engine.trace_probe ~flow eng ~vp ~dst ~ttl)
              (Engine_ref.trace_probe ~flow reference ~vp ~dst ~ttl)
          in
          List.iter
            (function
              | Trace { vp; dst; flow; ttls } ->
                for ttl = 1 to ttls do
                  trace_at vp dst flow ttl
                done
              | Probe { vp; dst; flow; ttl } -> trace_at vp dst flow ttl
              | Ping d ->
                same ("ping " ^ Ipv4.to_string dsts.(d))
                  (Engine.ping eng ~dst:dsts.(d))
                  (Engine_ref.ping reference ~dst:dsts.(d))
              | Udp d ->
                same ("udp " ^ Ipv4.to_string dsts.(d))
                  (Engine.udp_probe eng ~dst:dsts.(d))
                  (Engine_ref.udp_probe reference ~dst:dsts.(d))
              | Advance dt ->
                Engine.advance eng dt;
                Engine_ref.advance reference dt)
            ops;
          if Engine.now eng <> Engine_ref.now reference then
            QCheck.Test.fail_reportf "clocks differ on %s" w.Gen.params.Gen.name)
        (Lazy.force ref_worlds);
      true)

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
    Alcotest.test_case "per-trace path memo" `Quick test_per_trace_memo;
    Alcotest.test_case "per-trace memo classic traces" `Quick test_per_trace_memo_classic;
    Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
    Qc.to_alcotest prop_engine_matches_reference;
    Alcotest.test_case "gap limit truncates" `Quick test_gap_limit_truncates;
    Alcotest.test_case "echo-only edge" `Quick test_echo_only_edge;
    Alcotest.test_case "firewalled direct probes" `Quick test_firewalled_direct_probes ]
