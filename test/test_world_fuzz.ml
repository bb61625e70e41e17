(* Property-based world fuzzer: random generator parameters (bounded
   small, pathology knobs anywhere in their domain) through the FULL
   pipeline, asserting structural invariants on every world. The
   QCheck input is a single fuzz seed; all parameter diversity derives
   from it through a private PRNG, so a failure shrinks to one integer
   and replays with the QCHECK_SEED recipe printed by [Qc]. *)

open Netcore
module Gen = Topogen.Gen
module Net = Topogen.Net
module H = Bdrmap.Heuristics

let with_metrics f =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.disable ())
    f

(* Worlds stay tiny (a few dozen routers) so 50+ full pipeline runs fit
   the test budget; knob extremes, not size, are what the fuzzer
   explores. [n_tier1 >= 1] and [host_cities >= 1] keep the draws
   inside the generator's documented domain — the boundary rejections
   themselves are unit-tested in [Test_gen_bounds]. *)
let params_of_fuzz fseed =
  let st = Random.State.make [| fseed |] in
  let i lo hi = lo + Random.State.int st (hi - lo + 1) in
  let f hi = Random.State.float st hi in
  { Gen.name = Printf.sprintf "fuzz-%d" fseed;
    seed = i 0 99_999;
    host_kind = (match i 0 2 with 0 -> Net.Access | 1 -> Net.Ree | _ -> Net.Tier1);
    host_cities = i 1 4;
    host_sibling_count = i 0 2;
    n_tier1 = i 1 3;
    n_transit = i 0 3;
    n_ixp = i 0 2;
    host_ixp_count = i 0 2;
    n_host_providers = i 0 3;
    n_host_peers = i 0 2;
    n_host_ixp_peers = i 0 3;
    n_host_customers = i 0 8;
    big_peer_links = i 0 3;
    n_cdn_peers = i 0 2;
    n_remote = i 0 6;
    n_vps = i 0 3;
    avg_cust_links = 1.0 +. f 1.0;
    p_cust_firewall = f 1.0;
    p_cust_silent = f 0.5;
    p_cust_echo_only = f 0.3;
    p_third_party = f 0.3;
    p_unrouted_infra = f 1.0;
    p_pa_infra = f 1.0;
    p_multihomed_pair = f 1.0;
    p_ipid_shared = f 1.0;
    p_ipid_periface = f 0.5;
    p_ipid_random = f 0.5;
    p_udp_canonical = f 1.0;
    p_vrouter = f 1.0;
    p_moas = f 1.0;
    p_ixp_member = f 1.0;
    p_sibling_hidden = f 1.0;
    p_hijack = f 1.0;
    fault = Gen.zero_fault }

let fuzz_arb = QCheck.(make ~print:Print.int Gen.(int_bound 1_000_000))

let run_lines (r : Bdrmap.Pipeline.run) =
  Bdrmap.Output.links_to_lines r.Bdrmap.Pipeline.graph
    r.Bdrmap.Pipeline.inference

let owned_count (r : Bdrmap.Pipeline.run) =
  Array.fold_left
    (fun k o -> if o <> H.Unknown then k + 1 else k)
    0 r.Bdrmap.Pipeline.inference.H.owners

(* The consistency invariants every generated world must satisfy after
   a full serial sweep:
   - [published_siblings] is a host-containing subset of the truth;
   - every border link anchors on routers the heuristics actually
     owned: near side Host_router, far side a Neighbor of the link's
     neighbor AS (silent placements carry no far node);
   - per-heuristic fire counters sum to exactly the owned routers;
   - merging duplicated per-VP observations adds no links (the
     aggregate merge is idempotent on its input set). *)
let prop_world_invariants =
  QCheck.Test.make ~name:"fuzzed world: pipeline invariants" ~count:50
    fuzz_arb
    (fun fseed ->
      let p = params_of_fuzz fseed in
      Gen.validate_params p;
      let w = Gen.generate p in
      if not (Asn.Set.subset w.Gen.published_siblings w.Gen.siblings) then
        QCheck.Test.fail_report "published siblings not a subset of truth";
      if not (Asn.Set.mem w.Gen.host_asn w.Gen.published_siblings) then
        QCheck.Test.fail_report "host AS hidden from published siblings";
      let _shared, _fwd, _engine, inputs = Bdrmap.Pipeline.setup w in
      let runs =
        with_metrics (fun () ->
            let runs = Bdrmap.Pipeline.execute_all w inputs ~vps:w.Gen.vps in
            let owned =
              List.fold_left (fun acc r -> acc + owned_count r) 0 runs
            in
            let prefix = "heuristics.fire." in
            let fired =
              List.fold_left
                (fun acc (name, v) ->
                  match v with
                  | Obs.Metrics.Counter n
                    when String.length name > String.length prefix
                         && String.sub name 0 (String.length prefix) = prefix
                    ->
                    acc + n
                  | _ -> acc)
                0 (Obs.Metrics.collect ())
            in
            if owned <> fired then
              QCheck.Test.fail_reportf
                "fire counts sum to %d but %d routers owned" fired owned;
            runs)
      in
      List.iter
        (fun (r : Bdrmap.Pipeline.run) ->
          let res = r.Bdrmap.Pipeline.inference in
          List.iter
            (fun (l : H.border_link) ->
              (match l.H.near_node with
              | Some id ->
                if H.owner_of res id <> H.Host_router then
                  QCheck.Test.fail_report
                    "border link near side not owned by the host"
              | None -> ());
              match l.H.far_node with
              | Some id -> (
                match H.owner_of res id with
                | H.Neighbor (asn, _) ->
                  if not (Asn.equal asn l.H.neighbor) then
                    QCheck.Test.fail_report
                      "far router owned by a different AS than its link"
                | _ ->
                  QCheck.Test.fail_report
                    "border link far side not owned by a neighbor")
              | None -> ())
            res.H.links)
        runs;
      let vls =
        Bdrmap.Aggregate.of_runs
          (List.map2
             (fun (vp : Gen.vp) (r : Bdrmap.Pipeline.run) ->
               (vp.Gen.vp_name, r.Bdrmap.Pipeline.graph,
                r.Bdrmap.Pipeline.inference))
             w.Gen.vps runs)
      in
      let key (m : Bdrmap.Aggregate.merged) =
        ( m.Bdrmap.Aggregate.neighbor,
          Ipv4.Set.elements m.Bdrmap.Aggregate.near_addrs,
          Ipv4.Set.elements m.Bdrmap.Aggregate.far_addrs )
      in
      let links_of vls =
        List.sort compare (List.map key (Bdrmap.Aggregate.merge vls))
      in
      if links_of vls <> links_of (vls @ vls) then
        QCheck.Test.fail_report
          "merging duplicated observations changed the aggregate";
      true)

(* Fixed fuzz seed, serial sweep vs a 3-domain pool: the full pipeline
   output must be byte-identical. This is the fuzzer's arm of the
   repo-wide any-[-j] determinism invariant. *)
let prop_pool_identity =
  QCheck.Test.make ~name:"fuzzed world: -j1 and pooled sweeps identical"
    ~count:10 fuzz_arb
    (fun fseed ->
      let p = params_of_fuzz fseed in
      let w = Gen.generate p in
      let _shared, _fwd, _engine, inputs = Bdrmap.Pipeline.setup w in
      let serial = Bdrmap.Pipeline.execute_all w inputs ~vps:w.Gen.vps in
      let pooled =
        Pool.with_pool ~domains:3 (fun pool ->
            Bdrmap.Pipeline.execute_all ~pool w inputs ~vps:w.Gen.vps)
      in
      let lines rs = List.concat_map run_lines rs in
      if lines serial <> lines pooled then
        QCheck.Test.fail_report "pooled sweep output diverged from serial";
      true)

let suite =
  [ Qc.to_alcotest prop_world_invariants;
    Qc.to_alcotest prop_pool_identity ]
