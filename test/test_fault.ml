(* Property tests over the fault-injection layer: the token bucket's
   rate bound, seed-determinism of the drop sequence, and the strict
   no-op contract of a zero config. *)

module Gen = Topogen.Gen
module Engine = Probesim.Engine
module Fault = Probesim.Fault

(* --- token bucket: replies in any window obey burst + rate * span --- *)

let arb_schedule =
  (* Monotone probe times built from non-negative increments, and the
     bucket parameters under test. *)
  QCheck.make
    ~print:(fun (rate, burst, incs) ->
      Printf.sprintf "rate=%.3f burst=%.1f n=%d" rate burst (List.length incs))
    QCheck.Gen.(
      triple
        (float_range 0.1 50.0)
        (float_range 1.0 10.0)
        (list_size (int_range 1 120) (float_range 0.0 0.5)))

let prop_bucket_rate_bound =
  QCheck.Test.make ~name:"token bucket never exceeds rate over any window"
    ~count:200 arb_schedule (fun (rate, burst, incs) ->
      let cfg =
        { Fault.zero with
          Fault.rl_share = 1.0;
          rl_rate = rate;
          rl_burst = burst }
      in
      let st = Fault.create ~seed:42 cfg in
      let now = ref 0.0 in
      let events =
        List.map
          (fun dt ->
            now := !now +. dt;
            (!now, Fault.reply_allowed st ~rid:7 ~now:!now))
          incs
      in
      let arr = Array.of_list events in
      let n = Array.length arr in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i to n - 1 do
          let t0, _ = arr.(i) and t1, _ = arr.(j) in
          let allowed = ref 0 in
          for k = i to j do
            if snd arr.(k) then incr allowed
          done;
          (* Classic bound: a bucket holding at most [burst] tokens and
             refilling at [rate] can emit at most burst + rate * span
             replies inside the window (the first event may also spend a
             token refilled exactly at t0, hence the epsilon). *)
          if float_of_int !allowed > burst +. (rate *. (t1 -. t0)) +. 1e-6 then
            ok := false
        done
      done;
      !ok)

(* --- determinism: same seed and config => same drop sequence --- *)

type ev = Probe | Reply of int * float

let arb_run =
  QCheck.make
    ~print:(fun (seed, evs) ->
      Printf.sprintf "seed=%d n=%d" seed (List.length evs))
    QCheck.Gen.(
      pair (int_bound 10_000)
        (list_size (int_range 1 200)
           (map3
              (fun k rid dt ->
                if k then Probe else Reply (rid, Float.abs dt))
              bool (int_bound 30) (float_range 0.0 2.0))))

let replay seed evs =
  let cfg =
    { Fault.probe_loss_p = 0.1;
      reply_loss_p = 0.1;
      rl_share = 0.5;
      rl_rate = 2.0;
      rl_burst = 3.0;
      dark_share = 0.3;
      dark_after = 5;
      failures = [ { Fault.lid = 3; fail_at = 1.0; recover_at = 5.0 } ] }
  in
  let st = Fault.create ~seed cfg in
  let now = ref 0.0 in
  List.map
    (function
      | Probe -> Fault.probe_lost st
      | Reply (rid, dt) ->
        now := !now +. dt;
        Fault.reply_allowed st ~rid ~now:!now)
    evs

let prop_same_seed_same_drops =
  QCheck.Test.make ~name:"same seed implies identical drop sequence" ~count:200
    arb_run (fun (seed, evs) -> replay seed evs = replay seed evs)

(* --- zero config is a strict no-op on the full pipeline --- *)

let pipeline_lines inputs engine =
  let w = Engine.world engine in
  let vp = List.hd w.Gen.vps in
  let r = Bdrmap.Pipeline.execute engine inputs ~vp in
  Bdrmap.Output.links_to_lines r.Bdrmap.Pipeline.graph r.Bdrmap.Pipeline.inference

let test_zero_config_noop () =
  let w = Gen.generate Topogen.Scenario.tiny in
  let bgp =
    Routing.Bgp.freeze
      (Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
         ~selective:w.Gen.selective)
  in
  let inputs = Bdrmap.Pipeline.inputs_of_world w bgp in
  let fwd = Routing.Forwarding.create w.Gen.net bgp in
  (* Default creation (tiny's fault profile is zero) vs an explicit zero
     config: the full run must be byte-identical, probe for probe. *)
  let eng_default = Engine.create w fwd in
  let eng_zero = Engine.create ~fault:Fault.zero w fwd in
  Alcotest.(check bool) "default profile is zero" true
    (Fault.is_zero (Engine.fault_config eng_default));
  let lines_default = pipeline_lines inputs eng_default in
  let lines_zero = pipeline_lines inputs eng_zero in
  Alcotest.(check (list string)) "border map byte-identical" lines_default
    lines_zero;
  Alcotest.(check int) "probe counts equal" (Engine.probe_count eng_default)
    (Engine.probe_count eng_zero);
  Alcotest.(check (float 1e-9)) "clocks equal" (Engine.now eng_default)
    (Engine.now eng_zero);
  let s = Engine.fault_stats eng_zero in
  Alcotest.(check int) "no probe drops" 0 s.Fault.probes_lost;
  Alcotest.(check int) "no reply drops" 0 s.Fault.replies_lost;
  Alcotest.(check int) "no rate limiting" 0 s.Fault.rate_limited;
  Alcotest.(check int) "no dark drops" 0 s.Fault.dark_dropped;
  Alcotest.(check int) "no failure hits" 0 s.Fault.failure_hits

let test_zero_profile_of_world () =
  (* [of_profile] on a zero-fault world is the zero config, and the
     impairment mapping hits it exactly at intensity 0. *)
  let w = Gen.generate Topogen.Scenario.tiny in
  Alcotest.(check bool) "of_profile zero" true
    (Fault.is_zero (Fault.of_profile w));
  Alcotest.(check bool) "impairment 0 is zero_fault" true
    (Topogen.Scenario.impairment ~intensity:0.0 = Gen.zero_fault)

let test_dark_quota_goes_dark () =
  (* A quota router answers exactly [dark_after] replies, then never
     again; an unaffected router is untouched. *)
  let cfg = { Fault.zero with Fault.dark_share = 1.0; dark_after = 4 } in
  let st = Fault.create ~seed:9 cfg in
  let answers = List.init 10 (fun i -> Fault.reply_allowed st ~rid:1 ~now:(float_of_int i)) in
  Alcotest.(check (list bool)) "4 replies then dark"
    [ true; true; true; true; false; false; false; false; false; false ]
    answers;
  Alcotest.(check int) "drops counted" 6 (Fault.stats st).Fault.dark_dropped

let test_failure_window () =
  let cfg =
    { Fault.zero with
      Fault.failures = [ { Fault.lid = 5; fail_at = 10.0; recover_at = 20.0 } ] }
  in
  let st = Fault.create ~seed:1 cfg in
  (* A fake two-step path whose second step enters link 5. *)
  let lids = [| 3; 5 |] in
  Alcotest.(check (option int)) "up before onset" None
    (Fault.first_failed_step st ~now:5.0 ~lids ~hops:2);
  Alcotest.(check (option int)) "down inside window" (Some 1)
    (Fault.first_failed_step st ~now:15.0 ~lids ~hops:2);
  Alcotest.(check (option int)) "beyond the path's hops" None
    (Fault.first_failed_step st ~now:15.0 ~lids ~hops:1);
  Alcotest.(check (option int)) "up after recovery" None
    (Fault.first_failed_step st ~now:25.0 ~lids ~hops:2)

(* --- nonzero configs under the pool: extends the zero-config identity
   test to a corpus world with dark-router quotas AND transient link
   failure windows live. Per-router quota subsets and failure schedules
   are pure functions of (seed, rid), so per-VP engines built on worker
   domains must replay the exact serial drop sequence. --- *)

let test_nonzero_fault_pool_identity () =
  let sc = Option.get (Topogen.Corpus.by_name "silent_dark") in
  let p = sc.Topogen.Corpus.sc_params ~scale:0.1 in
  let fault =
    { Gen.zero_fault with
      Gen.f_dark_share = 0.3;
      f_dark_after = 40;
      f_fail_links = 3;
      f_fail_at = 10.0;
      f_fail_for = 60.0 }
  in
  let w = Gen.generate { p with Gen.fault } in
  let _shared, fwd, _engine, inputs = Bdrmap.Pipeline.setup w in
  Alcotest.(check bool) "engines see a nonzero fault config" false
    (Fault.is_zero (Engine.fault_config (Engine.create w fwd)));
  let lines rs =
    List.concat_map
      (fun (r : Bdrmap.Pipeline.run) ->
        Bdrmap.Output.links_to_lines r.Bdrmap.Pipeline.graph
          r.Bdrmap.Pipeline.inference)
      rs
  in
  let probes rs =
    List.fold_left
      (fun acc (r : Bdrmap.Pipeline.run) -> acc + r.Bdrmap.Pipeline.probes)
      0 rs
  in
  let serial = Bdrmap.Pipeline.execute_all w inputs ~vps:w.Gen.vps in
  let pooled =
    Netcore.Pool.with_pool ~domains:4 (fun pool ->
        Bdrmap.Pipeline.execute_all ~pool w inputs ~vps:w.Gen.vps)
  in
  Alcotest.(check (list string)) "impaired border maps byte-identical"
    (lines serial) (lines pooled);
  Alcotest.(check int) "impaired probe counts identical" (probes serial)
    (probes pooled);
  (* The impairments genuinely engaged: the same world with a zero
     profile probes differently (quota routers go dark mid-collection,
     failed links eat probes into the retry ladder). *)
  let w0 = Gen.generate p in
  let _shared, _fwd, _engine, inputs0 = Bdrmap.Pipeline.setup w0 in
  let clean = Bdrmap.Pipeline.execute_all w0 inputs0 ~vps:w0.Gen.vps in
  Alcotest.(check bool) "fault layer changed the collection" true
    (probes clean <> probes serial || lines clean <> lines serial)

let suite =
  [ Qc.to_alcotest prop_bucket_rate_bound;
    Qc.to_alcotest prop_same_seed_same_drops;
    Alcotest.test_case "nonzero fault config identical under pool" `Quick
      test_nonzero_fault_pool_identity;
    Alcotest.test_case "zero config strict no-op" `Quick test_zero_config_noop;
    Alcotest.test_case "zero profile of world" `Quick test_zero_profile_of_world;
    Alcotest.test_case "dark quota" `Quick test_dark_quota_goes_dark;
    Alcotest.test_case "failure window" `Quick test_failure_window ]
