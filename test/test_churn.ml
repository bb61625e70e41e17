(* Temporal churn: every evolution event class applied to a small
   world, with the incremental re-freeze (Bgp.refreeze +
   Forwarding.patch) pinned to a from-scratch freeze of the evolved
   world — origin sets, packed words, arena segments, every LPM answer,
   every IGP distance and egress cell. Plus a QCheck property chaining random
   multi-class event batches across epochs, shrinking to one seed. *)

open Netcore
module Gen = Topogen.Gen
module Evolve = Topogen.Evolve
module Bgp = Routing.Bgp
module Fwd = Routing.Forwarding

let fresh_bgp (w : Gen.world) =
  Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
    ~selective:w.Gen.selective

let base_world () =
  Gen.generate (Topogen.Scenario.small_access ~scale:0.15 ())

(* Freeze the pre-churn routing state: snapshot plus forwarding plan. *)
let freeze_world (w : Gen.world) =
  let snap = Bgp.freeze (fresh_bgp w) in
  let fwd = Fwd.create w.Gen.net (Bgp.of_snapshot snap) in
  let plan = Fwd.freeze ~egress_for:w.Gen.siblings fwd in
  (snap, plan)

(* [force] draws its site from the seed; eligibility does not. Scan a
   few seeds so classes whose site choice can collide (e.g. aggregate
   needs an adjacent same-length sibling pair) still land. *)
let force_kind kind w =
  let rec go seed =
    if seed > 50 then None
    else
      match Evolve.force ~seed kind w with
      | Some r -> Some r
      | None -> go (seed + 1)
  in
  go 1

let check_equal_snapshots ~what scratch patched =
  match Bgp.Snapshot.equal scratch patched with
  | Ok () -> ()
  | Error m -> Alcotest.fail (what ^ ": snapshot diverged: " ^ m)

let check_equal_plans ~what splan plan =
  match Fwd.plan_equal ~scratch:splan ~patched:plan with
  | Ok () -> ()
  | Error m -> Alcotest.fail (what ^ ": plan diverged: " ^ m)

(* Apply one forced event of [kind]; incremental refreeze + plan patch
   must match a scratch freeze of the evolved world exactly.
   [expect_dirty] pins the per-class dirtiness contract where it is
   deterministic. *)
let test_class ?expect_dirty kind () =
  let w = base_world () in
  let old_snap, old_plan = freeze_world w in
  match force_kind kind w with
  | None ->
    Alcotest.fail
      (Evolve.kind_label kind ^ ": no eligible site in the base world")
  | Some (w', te) ->
    Alcotest.(check string)
      "forced event has the requested class"
      (Evolve.kind_label kind)
      (Evolve.kind_label (Evolve.kind_of te.Evolve.ev));
    let churn = Bgp.churn_of_events [ te ] in
    let snap, stats = Bgp.refreeze (fresh_bgp w') ~old:old_snap churn in
    Alcotest.(check bool) "no full-recompute fallback" false
      stats.Bgp.rf_fallback;
    Option.iter
      (fun d ->
        Alcotest.(check int) "dirty prefix count" d stats.Bgp.rf_dirty)
      expect_dirty;
    let scratch =
      Bgp.freeze ~counter:"routing.snapshot.scratch_builds" (fresh_bgp w')
    in
    check_equal_snapshots ~what:(Evolve.kind_label kind) scratch snap;
    let fwd = Fwd.create w'.Gen.net (Bgp.of_snapshot snap) in
    let plan =
      Fwd.patch ~egress_for:w'.Gen.siblings fwd ~old:old_plan ~churn
        ~dirty:stats.Bgp.rf_dirty_prefixes
    in
    let sfwd = Fwd.create w'.Gen.net (Bgp.of_snapshot scratch) in
    let splan = Fwd.freeze ~egress_for:w'.Gen.siblings sfwd in
    check_equal_plans ~what:(Evolve.kind_label kind) splan plan

(* The zero-churn strict no-op: an empty batch patches nothing and the
   result is indistinguishable from the old snapshot. *)
let test_zero_churn () =
  let w = base_world () in
  let old_snap, old_plan = freeze_world w in
  let snap, stats = Bgp.refreeze (fresh_bgp w) ~old:old_snap Bgp.no_churn in
  Alcotest.(check int) "nothing re-propagated" 0 stats.Bgp.rf_dirty;
  Alcotest.(check bool) "no fallback" false stats.Bgp.rf_fallback;
  check_equal_snapshots ~what:"zero churn" old_snap snap;
  let fwd = Fwd.create w.Gen.net (Bgp.of_snapshot snap) in
  let plan =
    Fwd.patch ~egress_for:w.Gen.siblings fwd ~old:old_plan ~churn:Bgp.no_churn
      ~dirty:[]
  in
  check_equal_plans ~what:"zero churn" old_plan plan;
  Alcotest.(check string) "empty batch leaves the epoch digest alone"
    "prev-digest"
    (Evolve.log_digest "prev-digest" [])

(* The schedule validator fails fast on nonsense. *)
let test_schedule_validation () =
  Evolve.validate_schedule Evolve.default_schedule;
  let bad f =
    match Evolve.validate_schedule (f Evolve.default_schedule) with
    | () -> Alcotest.fail "invalid schedule accepted"
    | exception Invalid_argument _ -> ()
  in
  bad (fun s -> { s with Evolve.ev_epochs = -1 });
  bad (fun s -> { s with Evolve.ev_batch = -1 });
  bad (fun s -> { s with Evolve.ev_interval = 0.0 });
  bad (fun s -> { s with Evolve.w_link_add = -1.0 });
  bad (fun s ->
      { s with
        Evolve.w_link_add = 0.0;
        w_link_remove = 0.0;
        w_new_customer = 0.0;
        w_depeer = 0.0;
        w_aggregate = 0.0;
        w_deaggregate = 0.0
      })

(* -- Property: random event sequences over random worlds -- *)

let fuzz_arb = QCheck.(make ~print:Print.int Gen.(int_bound 1_000_000))

(* API-level equivalence on top of Snapshot.equal: every (asn, prefix)
   route and as_path, and the lookup at each prefix's first address,
   answered identically by the incremental and scratch snapshots. *)
let check_api_equiv inc scr =
  let asns =
    List.init (Bgp.Snapshot.asn_count inc) (Bgp.Snapshot.asn_of_slot inc)
  in
  let pfx = Bgp.prefixes inc in
  List.iter
    (fun a ->
      List.iter
        (fun p ->
          if Bgp.route inc a p <> Bgp.route scr a p then
            QCheck.Test.fail_reportf "route AS%d %s differs" a
              (Prefix.to_string p);
          if Bgp.as_path inc a p <> Bgp.as_path scr a p then
            QCheck.Test.fail_reportf "as_path AS%d %s differs" a
              (Prefix.to_string p);
          let addr = Prefix.first p in
          if Bgp.lookup inc a addr <> Bgp.lookup scr a addr
          then
            QCheck.Test.fail_reportf "lookup AS%d %s differs" a
              (Ipv4.to_string addr))
        pfx)
    asns

let prop_random_churn =
  QCheck.Test.make
    ~name:"random churn: incremental refreeze = scratch freeze, every epoch"
    ~count:8 fuzz_arb
    (fun fseed ->
      let st = Random.State.make [| fseed |] in
      let wseed = Random.State.int st 100_000 in
      let w =
        Gen.generate (Topogen.Scenario.small_access ~scale:0.15 ~seed:wseed ())
      in
      let schedule =
        { Evolve.default_schedule with
          Evolve.ev_seed = Random.State.int st 100_000;
          ev_epochs = 2;
          ev_batch = 4
        }
      in
      let world = ref w in
      let snap = ref (Bgp.freeze (fresh_bgp w)) in
      let plan =
        ref
          (Fwd.freeze ~egress_for:w.Gen.siblings
             (Fwd.create w.Gen.net (Bgp.of_snapshot !snap)))
      in
      for e = 1 to schedule.Evolve.ev_epochs do
        let w', events = Evolve.advance schedule ~epoch:e !world in
        world := w';
        let churn = Bgp.churn_of_events events in
        let s, stats = Bgp.refreeze (fresh_bgp w') ~old:!snap churn in
        let scratch =
          Bgp.freeze ~counter:"routing.snapshot.scratch_builds" (fresh_bgp w')
        in
        (match Bgp.Snapshot.equal scratch s with
        | Ok () -> ()
        | Error m -> QCheck.Test.fail_reportf "epoch %d: %s" e m);
        check_api_equiv s scratch;
        let fwd = Fwd.create w'.Gen.net (Bgp.of_snapshot s) in
        let p =
          Fwd.patch ~egress_for:w'.Gen.siblings fwd ~old:!plan ~churn
            ~dirty:stats.Bgp.rf_dirty_prefixes
        in
        let sfwd = Fwd.create w'.Gen.net (Bgp.of_snapshot scratch) in
        let sp = Fwd.freeze ~egress_for:w'.Gen.siblings sfwd in
        (match Fwd.plan_equal ~scratch:sp ~patched:p with
        | Ok () -> ()
        | Error m -> QCheck.Test.fail_reportf "epoch %d plan: %s" e m);
        snap := s;
        plan := p
      done;
      true)

(* Depeering and new-customer events against the boxed reference model
   (bgp_ref.ml) rather than against another kernel run: after each
   forced event, both the incremental refreeze and a scratch freeze of
   the evolved world must answer every (AS, prefix) route, as_path and
   lookup like the reference. The events chain on one world, so the
   new customer lands on an already patched snapshot. *)
let prop_churn_matches_reference =
  QCheck.Test.make
    ~name:"depeer, new customer: refreeze and scratch freeze = reference model"
    ~count:4 fuzz_arb
    (fun fseed ->
      let w =
        Gen.generate
          (Topogen.Scenario.small_access ~scale:0.15 ~seed:(fseed mod 100_000) ())
      in
      let check what w' snap =
        match Bgp_ref.check_snapshot (Bgp_ref.of_world w') snap with
        | Ok () -> ()
        | Error m -> QCheck.Test.fail_reportf "%s: %s" what m
      in
      let rec force kind w seed =
        if seed > fseed + 50 then None
        else
          match Evolve.force ~seed kind w with
          | Some r -> Some r
          | None -> force kind w (seed + 1)
      in
      ignore
        (List.fold_left
           (fun (w, old) kind ->
             let label = Evolve.kind_label kind in
             match force kind w fseed with
             | None -> QCheck.Test.fail_reportf "%s: no eligible site" label
             | Some (w', te) ->
               let s, _ = Bgp.refreeze (fresh_bgp w') ~old (Bgp.churn_of_events [ te ]) in
               check (label ^ " refreeze") w' s;
               check (label ^ " scratch freeze") w'
                 (Bgp.freeze ~counter:"routing.snapshot.scratch_builds" (fresh_bgp w'));
               (w', s))
           (w, Bgp.freeze (fresh_bgp w))
           [ Evolve.Depeer; Evolve.New_customer ]);
      true)

(* A surviving prefix gains an origin while the prefix list stays the
   same: the re-freeze must read the new origin set, not the old
   snapshot's, for the moved prefix's row and for [Bgp.origins]. No
   Evolve class makes this change, so the input is edited by hand. *)
let test_origin_change () =
  let w = base_world () in
  let old_snap, _ = freeze_world w in
  let originated = Gen.originated w in
  let p, os = List.hd originated in
  let extra =
    Asn.Set.find_first
      (fun a -> not (Asn.Set.mem a os))
      (Bgpdata.As_rel.asns w.Gen.rels_truth)
  in
  let originated' =
    (p, Asn.Set.add extra os) :: List.tl originated
  in
  let input () =
    Bgp.create w.Gen.net w.Gen.rels_truth ~originated:originated'
      ~selective:w.Gen.selective
  in
  let snap, stats = Bgp.refreeze (input ()) ~old:old_snap Bgp.no_churn in
  Alcotest.(check int) "one dirty prefix" 1 stats.Bgp.rf_dirty;
  Alcotest.(check bool) "new origin visible" true
    (Asn.Set.mem extra (Bgp.origins snap p));
  check_equal_snapshots ~what:"origin change"
    (Bgp.freeze ~counter:"routing.snapshot.scratch_builds" (input ()))
    snap

(* A prefix re-originated by another prefix's origin set moves into
   that set's row: it is the one dirty prefix, nothing propagates (the
   arena gains no segment), and the forwarding patch re-scores no
   column the moved prefix can take from its new row's clean prefixes.
   The old row keeps any other prefix of the old set. *)
let test_prefix_moves_row () =
  let w = base_world () in
  let old_snap, old_plan = freeze_world w in
  let module S = Bgp.Snapshot in
  let row snap p = S.row_of_pslot snap (S.prefix_slot snap p) in
  let originated = Gen.originated w in
  let p, _ = List.hd originated in
  let q, os' = List.find (fun (q, _) -> row old_snap q <> row old_snap p) originated in
  let originated' = (p, os') :: List.filter (fun (q, _) -> not (Prefix.equal q p)) originated in
  let input () =
    Bgp.create w.Gen.net w.Gen.rels_truth ~originated:originated' ~selective:w.Gen.selective
  in
  let snap, stats = Bgp.refreeze (input ()) ~old:old_snap Bgp.no_churn in
  Alcotest.(check (list string)) "the moved prefix is the one dirty prefix"
    [ Prefix.to_string p ]
    (List.map Prefix.to_string stats.Bgp.rf_dirty_prefixes);
  Alcotest.(check int) "no segment appended" (S.arena_length old_snap) (S.arena_length snap);
  Alcotest.(check int) "shares the set's row" (row snap q) (row snap p);
  let scratch = Bgp.freeze ~counter:"routing.snapshot.scratch_builds" (input ()) in
  check_equal_snapshots ~what:"moved prefix" scratch snap;
  let plan =
    Fwd.patch ~egress_for:w.Gen.siblings
      (Fwd.create w.Gen.net (Bgp.of_snapshot snap))
      ~old:old_plan ~churn:Bgp.no_churn ~dirty:stats.Bgp.rf_dirty_prefixes
  in
  let splan =
    Fwd.freeze ~egress_for:w.Gen.siblings (Fwd.create w.Gen.net (Bgp.of_snapshot scratch))
  in
  check_equal_plans ~what:"moved prefix" splan plan

let suite =
  [ Alcotest.test_case "zero churn is a strict no-op" `Quick test_zero_churn;
    Alcotest.test_case "origin change on a surviving prefix" `Quick
      test_origin_change;
    Alcotest.test_case "re-originated prefix moves to an existing row" `Quick
      test_prefix_moves_row;
    Alcotest.test_case "schedule validation" `Quick test_schedule_validation;
    Alcotest.test_case "link add" `Quick
      (test_class ~expect_dirty:0 Evolve.Link_add);
    Alcotest.test_case "link remove" `Quick
      (test_class ~expect_dirty:0 Evolve.Link_remove);
    Alcotest.test_case "new customer" `Quick
      (test_class ~expect_dirty:1 Evolve.New_customer);
    Alcotest.test_case "depeer" `Quick (test_class Evolve.Depeer);
    Alcotest.test_case "aggregate" `Quick
      (test_class ~expect_dirty:1 Evolve.Aggregate);
    Alcotest.test_case "deaggregate" `Quick
      (test_class ~expect_dirty:2 Evolve.Deaggregate);
    Qc.to_alcotest prop_random_churn;
    Qc.to_alcotest prop_churn_matches_reference ]
