(* Generator domain boundaries: extreme parameter records must yield a
   valid (possibly trivial) world or a typed Invalid_argument from
   [Gen.validate_params] — never an uncaught exception from deep inside
   construction. These are the boundaries the world fuzzer steers
   around; each gets a direct unit test here. *)

module Gen = Topogen.Gen
module Net = Topogen.Net

(* A minimal in-domain base: one host metro, one Tier-1, nothing else. *)
let minimal =
  { Gen.default_params with
    Gen.name = "bounds";
    seed = 5;
    host_cities = 1;
    host_sibling_count = 0;
    n_tier1 = 1;
    n_transit = 0;
    n_ixp = 0;
    host_ixp_count = 0;
    n_host_providers = 0;
    n_host_peers = 0;
    n_host_ixp_peers = 0;
    n_host_customers = 0;
    big_peer_links = 0;
    n_cdn_peers = 0;
    n_remote = 0;
    n_vps = 0 }

let rejects name p =
  match Gen.validate_params p with
  | () -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_minimal_world () =
  (* The smallest valid world: host + one Tier-1, no VPs, no customers,
     no transits. Generation and the pipeline's input derivation must
     both survive it. *)
  let w = Gen.generate minimal in
  Alcotest.(check int) "no VPs" 0 (List.length w.Gen.vps);
  Alcotest.(check bool) "host present" true
    (Topogen.Net.router_count w.Gen.net > 0);
  let _shared, _fwd, _engine, inputs = Bdrmap.Pipeline.setup w in
  let runs = Bdrmap.Pipeline.execute_all w inputs ~vps:w.Gen.vps in
  Alcotest.(check int) "zero-VP sweep is empty" 0 (List.length runs)

let test_zero_vp_bigger_world () =
  let p = { (Topogen.Scenario.small_access ~scale:0.1 ()) with Gen.n_vps = 0 } in
  let w = Gen.generate p in
  Alcotest.(check int) "no VPs" 0 (List.length w.Gen.vps)

let test_single_as_rejected () =
  (* A world without a Tier-1 clique has no Internet to route through:
     typed rejection, not a crash in backbone construction. *)
  rejects "n_tier1 = 0" { minimal with Gen.n_tier1 = 0 };
  rejects "host_cities = 0" { minimal with Gen.host_cities = 0 }

let test_negative_counts_rejected () =
  rejects "n_host_customers = -1" { minimal with Gen.n_host_customers = -1 };
  rejects "n_remote = -3" { minimal with Gen.n_remote = -3 };
  rejects "n_vps = -1" { minimal with Gen.n_vps = -1 };
  rejects "fault.f_fail_links = -1"
    { minimal with Gen.fault = { Gen.zero_fault with Gen.f_fail_links = -1 } }

let test_bad_probabilities_rejected () =
  rejects "p_moas = nan" { minimal with Gen.p_moas = Float.nan };
  rejects "p_cust_firewall = 1.5" { minimal with Gen.p_cust_firewall = 1.5 };
  rejects "p_hijack = -0.1" { minimal with Gen.p_hijack = -0.1 };
  rejects "avg_cust_links = inf"
    { minimal with Gen.avg_cust_links = Float.infinity };
  rejects "fault.f_probe_loss = 2.0"
    { minimal with Gen.fault = { Gen.zero_fault with Gen.f_probe_loss = 2.0 } }

let test_all_pathologies_maxed () =
  (* Every pathology knob at its maximum on a small but non-trivial
     world: generation and a full single-VP pipeline run must hold. *)
  let p =
    { (Topogen.Scenario.small_access ~scale:0.1 ()) with
      Gen.name = "maxed";
      n_vps = 1;
      p_cust_firewall = 1.0;
      p_cust_silent = 1.0;
      p_cust_echo_only = 1.0;
      p_third_party = 1.0;
      p_unrouted_infra = 1.0;
      p_pa_infra = 1.0;
      p_multihomed_pair = 1.0;
      p_ipid_shared = 1.0;
      p_ipid_periface = 1.0;
      p_ipid_random = 1.0;
      p_udp_canonical = 1.0;
      p_vrouter = 1.0;
      p_moas = 1.0;
      p_ixp_member = 0.0;
      p_sibling_hidden = 1.0;
      p_hijack = 1.0 }
  in
  let w = Gen.generate p in
  Alcotest.(check bool) "host never hidden" true
    (Netcore.Asn.Set.mem w.Gen.host_asn w.Gen.published_siblings);
  let _shared, _fwd, _engine, inputs = Bdrmap.Pipeline.setup w in
  let runs = Bdrmap.Pipeline.execute_all w inputs ~vps:w.Gen.vps in
  Alcotest.(check int) "one run" 1 (List.length runs)

let test_published_siblings_default () =
  (* With the knob at 0, the published list IS the truth set: the
     default pipeline inputs are unchanged by the new field. *)
  let w = Gen.generate Topogen.Scenario.tiny in
  Alcotest.(check bool) "published = truth" true
    (Netcore.Asn.Set.equal w.Gen.siblings w.Gen.published_siblings)

let suite =
  [ Alcotest.test_case "minimal world generates and sweeps" `Quick
      test_minimal_world;
    Alcotest.test_case "zero-VP world is valid" `Quick test_zero_vp_bigger_world;
    Alcotest.test_case "single-AS inputs rejected typed" `Quick
      test_single_as_rejected;
    Alcotest.test_case "negative counts rejected typed" `Quick
      test_negative_counts_rejected;
    Alcotest.test_case "malformed probabilities rejected typed" `Quick
      test_bad_probabilities_rejected;
    Alcotest.test_case "all pathology knobs maxed" `Quick
      test_all_pathologies_maxed;
    Alcotest.test_case "published siblings default to truth" `Quick
      test_published_siblings_default ]
