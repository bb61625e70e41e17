(* Collection-driver behaviour on the tiny simulated world. *)

module Gen = Topogen.Gen
module Net = Topogen.Net
open Netcore

let setup = lazy (
  let w = Gen.generate Topogen.Scenario.tiny in
  let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
  let cfg = Bdrmap.Config.default ~vp_asns:inputs.vp_asns in
  let ip2as =
    Bdrmap.Ip2as.create ~rib:inputs.rib ~ixp:inputs.ixp
      ~delegations:inputs.delegations ~vp_asns:inputs.vp_asns
  in
  let blocks = Bdrmap.Targets.blocks ~rib:inputs.rib ~vp_asns:inputs.vp_asns in
  let vp = List.hd w.vps in
  let c = Bdrmap.Collect.run engine cfg ip2as ~vp blocks in
  (w, inputs, ip2as, blocks, c))

let test_traces_collected () =
  let _, _, _, blocks, c = Lazy.force setup in
  Alcotest.(check bool) "at least one trace per block set" true
    (List.length c.Bdrmap.Collect.traces >= List.length (Bdrmap.Targets.by_asn blocks))

let test_stop_sets_fire () =
  let _, _, _, _, c = Lazy.force setup in
  Alcotest.(check bool) "doubletree saved probes" true (c.Bdrmap.Collect.stopset_hits > 0)

let test_retry_bounded () =
  let _, _, _, _, c = Lazy.force setup in
  (* No more than addrs_per_block traces toward any single block. *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun t ->
      let key = (t.Bdrmap.Trace.target_asn, Ipv4.to_int t.Bdrmap.Trace.dst / 8) in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    c.Bdrmap.Collect.traces;
  Hashtbl.iter
    (fun _ n -> Alcotest.(check bool) "at most 5 tries" true (n <= 5))
    tbl

let test_hops_are_ttl_expired_sources () =
  let w, _, _, _, c = Lazy.force setup in
  (* Every recorded hop address exists in the world (no synthesis). *)
  List.iter
    (fun t ->
      Array.iter
        (fun h ->
          let a = Aliasres.Alias_graph.addr c.Bdrmap.Collect.aliases (Bdrmap.Trace.id h) in
          Alcotest.(check bool)
            (Printf.sprintf "%s is a real interface" (Ipv4.to_string a))
            true
            (Net.owner_of_addr w.Gen.net a <> None))
        t.Bdrmap.Trace.hops)
    c.Bdrmap.Collect.traces

let test_mates_are_aliases_of_prev () =
  let _, _, _, _, c = Lazy.force setup in
  let group = Aliasres.Alias_graph.group c.Bdrmap.Collect.aliases in
  List.iter
    (fun (prev, _, mate) ->
      Alcotest.(check bool) "mate joined prev's group" true (group prev = group mate))
    c.Bdrmap.Collect.mates

let test_mates_confirmed_in_truth () =
  let w, _, _, _, c = Lazy.force setup in
  let addr = Aliasres.Alias_graph.addr c.Bdrmap.Collect.aliases in
  (* Prefixscan inferences must place mate and prev on one true router. *)
  List.iter
    (fun (prev, _, mate) ->
      let prev = addr prev and mate = addr mate in
      match (Net.owner_of_addr w.Gen.net prev, Net.owner_of_addr w.Gen.net mate) with
      | Some r1, Some r2 ->
        Alcotest.(check int)
          (Printf.sprintf "%s mate of %s" (Ipv4.to_string mate) (Ipv4.to_string prev))
          r1.Net.rid r2.Net.rid
      | _ -> Alcotest.fail "mate not in world")
    c.Bdrmap.Collect.mates

let test_alias_groups_sound () =
  let w, _, _, _, c = Lazy.force setup in
  (* With repeated Ally + monotonicity, groups should not span routers. *)
  let bad =
    List.filter
      (fun group ->
        let rids =
          List.filter_map
            (fun a -> Option.map (fun (r : Net.router) -> r.Net.rid) (Net.owner_of_addr w.Gen.net a))
            group
          |> List.sort_uniq compare
        in
        List.length rids > 1)
      (Aliasres.Alias_graph.groups c.Bdrmap.Collect.aliases)
  in
  Alcotest.(check int) "no cross-router alias groups" 0 (List.length bad)

let test_scheduler_accounting () =
  let _, _, _, _, c = Lazy.force setup in
  let s = c.Bdrmap.Collect.sched in
  Alcotest.(check bool) "trace probes" true
    (Probesim.Scheduler.count s Probesim.Scheduler.Traceroute > 0);
  Alcotest.(check bool) "alias probes" true
    (Probesim.Scheduler.count s Probesim.Scheduler.Alias > 0);
  Alcotest.(check bool) "duration positive" true (Probesim.Scheduler.duration_s s > 0.0)

(* [Collect.candidate_pairs] against the address-keyed build in
   [Alias_ref], in order, on one VP of a corpus world at scale 0.1 (the
   world and the VP drawn from the seed). The run's traces are re-read
   into a fresh registry in collection order, which numbers their hops
   as the run did; the build runs uncapped and under a cap, drawn from
   the seed, below the uncapped pair count. *)
let prop_candidates_match_reference =
  QCheck.Test.make ~name:"candidate pairs = address-keyed reference, in order" ~count:20
    QCheck.(make ~print:Print.int ~shrink:Shrink.int Gen.(int_bound 1_000_000))
    (fun seed ->
      let scs = Topogen.Corpus.all in
      let sc = List.nth scs (seed mod List.length scs) in
      let w = Gen.generate { (sc.Topogen.Corpus.sc_params ~scale:0.1) with Gen.seed } in
      let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
      let vp = List.nth w.Gen.vps (seed / 7 mod List.length w.Gen.vps) in
      let c = (Bdrmap.Pipeline.execute engine inputs ~vp).Bdrmap.Pipeline.collection in
      let module Uf = Aliasres.Alias_graph.Uf in
      let uf = Uf.create () in
      let traces =
        List.map
          (fun (t : Bdrmap.Trace.t) ->
            let rename h =
              Bdrmap.Trace.hop ~ttl:(Bdrmap.Trace.ttl h)
                (Uf.intern uf ~observed:true
                   (Aliasres.Alias_graph.addr c.aliases (Bdrmap.Trace.id h)))
            in
            { t with hops = Array.map rename t.hops })
          c.traces
      in
      let cfg = Bdrmap.Config.default ~vp_asns:inputs.vp_asns in
      let fail what = QCheck.Test.fail_reportf "%s at seed %d: %s" sc.sc_name seed what in
      let check cfg =
        let got =
          List.map (fun (i, j) -> (Uf.addr uf i, Uf.addr uf j))
            (Bdrmap.Collect.candidate_pairs cfg uf traces)
        in
        if got <> Alias_ref.candidate_pairs cfg uf traces then
          fail (Printf.sprintf "pairs under a cap of %d" cfg.max_alias_candidates);
        got
      in
      let n = List.length (check cfg) in
      if n <> c.alias_pairs_tested then fail "pair count vs the run's";
      ignore (check { cfg with max_alias_candidates = 1 + (seed mod max 1 n) });
      true)

let suite =
  [ Alcotest.test_case "traces collected" `Quick test_traces_collected;
    Alcotest.test_case "stop sets fire" `Quick test_stop_sets_fire;
    Alcotest.test_case "retry bounded" `Quick test_retry_bounded;
    Alcotest.test_case "hops are real interfaces" `Quick test_hops_are_ttl_expired_sources;
    Alcotest.test_case "mates alias prev" `Quick test_mates_are_aliases_of_prev;
    Alcotest.test_case "mates confirmed in truth" `Quick test_mates_confirmed_in_truth;
    Alcotest.test_case "alias groups sound" `Quick test_alias_groups_sound;
    Alcotest.test_case "scheduler accounting" `Quick test_scheduler_accounting;
    Qc.to_alcotest prop_candidates_match_reference ]
