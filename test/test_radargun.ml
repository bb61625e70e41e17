module R = Aliasres.Radargun

let mk_series ~base ~rate times =
  List.map (fun t -> (t, int_of_float (base +. (rate *. t)) land 0xFFFF)) times

let times = [ 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 ]

let test_unwrap_simple () =
  match R.unwrap [ (0.0, 10); (1.0, 20); (2.0, 30) ] with
  | Some [ (_, a); (_, b); (_, c) ] ->
    Alcotest.(check (float 0.01)) "a" 10.0 a;
    Alcotest.(check (float 0.01)) "b" 20.0 b;
    Alcotest.(check (float 0.01)) "c" 30.0 c
  | _ -> Alcotest.fail "unwrap failed"

let test_unwrap_wrap () =
  match R.unwrap [ (0.0, 65530); (1.0, 4); (2.0, 14) ] with
  | Some [ (_, a); (_, b); (_, c) ] ->
    Alcotest.(check (float 0.01)) "pre-wrap" 65530.0 a;
    Alcotest.(check (float 0.01)) "post-wrap" 65540.0 b;
    Alcotest.(check (float 0.01)) "continues" 65550.0 c
  | _ -> Alcotest.fail "unwrap failed"

let test_velocity () =
  let s = mk_series ~base:100.0 ~rate:50.0 times in
  match R.velocity s with
  | Some v -> Alcotest.(check bool) "velocity ~50" true (abs_float (v -. 50.0) < 1.0)
  | None -> Alcotest.fail "no velocity"

let test_same_counter_aliases () =
  (* Two views of one counter, sampled at offset instants. *)
  let a = mk_series ~base:5000.0 ~rate:120.0 times in
  let b = mk_series ~base:5000.0 ~rate:120.0 (List.map (fun t -> t +. 0.4) times) in
  Alcotest.(check bool) "aliases" true (R.test a b = R.Aliases)

let test_different_rate_rejected () =
  let a = mk_series ~base:5000.0 ~rate:120.0 times in
  let b = mk_series ~base:5000.0 ~rate:400.0 times in
  Alcotest.(check bool) "different velocity" true (R.test a b = R.Not_aliases)

let test_same_rate_different_offset_rejected () =
  let a = mk_series ~base:1000.0 ~rate:120.0 times in
  let b = mk_series ~base:30000.0 ~rate:120.0 times in
  Alcotest.(check bool) "offset counters differ" true (R.test a b = R.Not_aliases)

let test_unusable_series () =
  Alcotest.(check bool) "too short" true (R.velocity [ (0.0, 1); (1.0, 2) ] = None);
  let constant = [ (0.0, 7); (1.0, 7); (2.0, 7) ] in
  Alcotest.(check bool) "constant counter" true (R.velocity constant = None);
  Alcotest.(check bool) "unresponsive verdict" true
    (R.test constant constant = R.Unresponsive)

let test_against_engine () =
  (* Cross-check against the simulated IP-ID behaviour: sample one
     shared-counter router twice; RadarGun must call it one counter. *)
  let w = Topogen.Gen.generate Topogen.Scenario.tiny in
  let _shared, _fwd, engine, _ = Bdrmap.Pipeline.setup w in
  let module Net = Topogen.Net in
  let r =
    List.find
      (fun (r : Net.router) ->
        r.Net.behavior.ipid = Net.Shared_counter
        && r.Net.behavior.echo
        && List.length r.Net.ifaces >= 2
        && (Net.as_node w.net r.Net.owner).Net.filter = Net.Open)
      (List.init (Net.router_count w.net) (Net.router w.net))
  in
  let a = (List.nth r.Net.ifaces 0).Net.addr in
  let b = (List.nth r.Net.ifaces 1).Net.addr in
  let sample addr =
    List.filter_map
      (fun _ ->
        Probesim.Engine.advance engine 1.0;
        Option.map
          (fun (rep : Probesim.Engine.reply) -> (Probesim.Engine.now engine, rep.ipid))
          (Probesim.Engine.ping engine ~dst:addr))
      [ (); (); (); (); (); () ]
  in
  let sa = sample a and sb = sample b in
  Alcotest.(check bool) "engine counter recognized" true (R.test sa sb = R.Aliases)

let suite =
  [ Alcotest.test_case "unwrap simple" `Quick test_unwrap_simple;
    Alcotest.test_case "unwrap across wraparound" `Quick test_unwrap_wrap;
    Alcotest.test_case "velocity fit" `Quick test_velocity;
    Alcotest.test_case "same counter aliases" `Quick test_same_counter_aliases;
    Alcotest.test_case "different rate rejected" `Quick test_different_rate_rejected;
    Alcotest.test_case "offset counters rejected" `Quick test_same_rate_different_offset_rejected;
    Alcotest.test_case "unusable series" `Quick test_unusable_series;
    Alcotest.test_case "engine cross-check" `Quick test_against_engine ]
