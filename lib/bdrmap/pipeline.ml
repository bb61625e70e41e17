open Netcore
module Gen = Topogen.Gen
module Engine = Probesim.Engine
module B = Bgpdata

type inputs = {
  rib : B.Rib.t;
  rels : B.As_rel.t;
  ixp : B.Ixp.t;
  delegations : B.Delegation.t;
  vp_asns : Asn.Set.t;
}

let roundtrip to_lines of_lines v =
  match of_lines (to_lines v) with
  | Ok v' -> v'
  | Error e -> invalid_arg ("Pipeline: artifact does not round-trip: " ^ e)

let inputs_of_world (w : Gen.world) bgp =
  let rib = Routing.Bgp.collector_view bgp w.Gen.collectors in
  let rib = roundtrip B.Rib.to_lines B.Rib.of_lines rib in
  let rels = B.Rel_infer.infer (B.Rib.all_paths rib) in
  let rels = roundtrip B.As_rel.to_lines B.As_rel.of_lines rels in
  let ixp = roundtrip B.Ixp.to_lines B.Ixp.of_lines w.Gen.ixp_registry in
  let delegations =
    roundtrip B.Delegation.to_lines B.Delegation.of_lines w.Gen.delegations
  in
  (* Inference sees the *published* siblings list (WHOIS in the paper),
     which adversarial worlds can make incomplete; ground truth for
     validation stays [w.siblings]. The two coincide by default. *)
  { rib; rels; ixp; delegations; vp_asns = w.Gen.published_siblings }

type run = {
  cfg : Config.t;
  ip2as : Ip2as.t;
  inputs : inputs;
  collection : Collect.t;
  graph : Rgraph.t;
  inference : Heuristics.result;
  probes : int;
  cache : Engine.cache_stats;
}

let execute ?cfg engine inputs ~vp =
  let cfg =
    match cfg with
    | Some c -> c
    | None -> Config.default ~vp_asns:inputs.vp_asns
  in
  (* Stage spans carry the engine's simulated clock next to wall time;
     collection/alias spans are opened inside [Collect]. *)
  let vp_name = vp.Gen.vp_name in
  let sim () = Engine.now engine in
  let span stage f = Obs.Span.with_span ~stage ~vp:vp_name ~sim f in
  let ip2as, blocks =
    span "input" (fun () ->
        ( Ip2as.create ~rib:inputs.rib ~ixp:inputs.ixp
            ~delegations:inputs.delegations ~vp_asns:inputs.vp_asns,
          Targets.blocks ~rib:inputs.rib ~vp_asns:inputs.vp_asns ))
  in
  let collection = Collect.run engine cfg ip2as ~vp blocks in
  let graph = span "graph" (fun () -> Rgraph.build collection) in
  let inference =
    span "heuristics" (fun () ->
        Heuristics.infer cfg ip2as ~rels:inputs.rels graph collection)
  in
  {
    cfg;
    ip2as;
    inputs;
    collection;
    graph;
    inference;
    probes = Engine.probe_count engine;
    cache = Engine.stats engine;
  }

(* Force the lazily built indices of the structures that parallel
   vantage-point runs share read-only (the topology's adjacency arrays,
   the delegation index, the RIB's flattened LPM), so no worker domain
   ever writes to them. *)
let freeze_shared (w : Gen.world) inputs =
  if Topogen.Net.router_count w.Gen.net > 0 then
    ignore (Topogen.Net.neighbors w.Gen.net 0);
  ignore (B.Delegation.find inputs.delegations Ipv4.zero);
  B.Rib.freeze inputs.rib

(* The shared routing state of a world: one BGP snapshot plus one
   forwarding plan, both pure immutable data. Built once before
   fan-out; every worker attaches by reference and keeps only its
   private cold-path caches. *)
type shared = {
  snapshot : Routing.Bgp.snapshot;
  plan : Routing.Forwarding.plan;
}

let routing_input (w : Gen.world) =
  Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
    ~selective:w.Gen.selective

let freeze_routing ?store ?epoch (w : Gen.world) =
  Obs.Span.with_span ~stage:"freeze" ~vp:"shared" (fun () ->
      (* With a store, the packed snapshot round-trips through its raw
         byte codec: warm sweeps skip the propagation compute entirely.
         The forwarding plan is cheap relative to the snapshot and
         rebuilds from it deterministically. *)
      let snapshot =
        let cached =
          match store with
          | None -> None
          | Some st -> Run_store.load_bgp_snapshot ?epoch st ~world:w
        in
        match cached with
        | Some s -> s
        | None ->
          let s = Routing.Bgp.freeze (routing_input w) in
          Option.iter
            (fun st -> Run_store.save_bgp_snapshot ?epoch st ~world:w s)
            store;
          s
      in
      let fwd =
        Routing.Forwarding.create w.Gen.net (Routing.Bgp.of_snapshot snapshot)
      in
      let plan = Routing.Forwarding.freeze ~egress_for:w.Gen.siblings fwd in
      { snapshot; plan })

let setup ?store ?(pps = 100.0) (w : Gen.world) =
  let shared = freeze_routing ?store w in
  let bgp = Routing.Bgp.of_snapshot shared.snapshot in
  let fwd = Routing.Forwarding.create ~plan:shared.plan w.Gen.net bgp in
  let engine = Engine.create ~pps w fwd in
  (shared, fwd, engine, inputs_of_world w bgp)

let execute_all ?cfg ?pool ?store ?shared ?epoch ?(pps = 100.0) (w : Gen.world)
    inputs ~vps =
  Obs.Metrics.incr "pipeline.sweeps";
  (* The store key must cover everything the run is a function of, so
     resolve the effective config here rather than letting [execute]
     default it per call. *)
  let cfg =
    match cfg with Some c -> c | None -> Config.default ~vp_asns:inputs.vp_asns
  in
  (* Routing state is a pure function of the world, never of the
     vantage point, so every VP shares one snapshot + plan and
     the per-VP stack shrinks to what is genuinely per-VP mutable: the
     engine's clock, probe counter, path memo, RNG and IP-ID state,
     plus thin private caches over the shared data. The laziness keeps
     fully store-warm sweeps from paying a freeze they will never use;
     under a pool it is forced before fan-out ([Lazy.force] is not
     domain-safe). *)
  let shared =
    match shared with
    | Some s -> lazy s
    | None -> lazy (freeze_routing ?store ?epoch w)
  in
  let compute vp =
    Obs.Metrics.incr "pipeline.vp_computes";
    let s = Lazy.force shared in
    let bgp = Routing.Bgp.of_snapshot s.snapshot in
    let fwd = Routing.Forwarding.create ~plan:s.plan w.Gen.net bgp in
    let engine = Engine.create ~pps w fwd in
    execute ~cfg engine inputs ~vp
  in
  (* With a store, each VP is a checkpoint: a hit rebuilds the run from
     its snapshot (ip2as is deterministic, so it is re-derived rather
     than stored: the host organizations once per sweep, a fresh memo
     per VP); a miss computes and persists before moving on, so a run
     killed mid-sweep resumes from the last completed VP. *)
  let hit_ip2as =
    lazy
      (Ip2as.create ~rib:inputs.rib ~ixp:inputs.ixp ~delegations:inputs.delegations
         ~vp_asns:inputs.vp_asns)
  in
  let run_vp vp =
    match store with
    | None -> compute vp
    | Some st -> (
      match Run_store.load ?epoch st ~world:w ~pps ~cfg ~vp with
      | Some (s : Run_store.snapshot) ->
        {
          cfg;
          ip2as = Ip2as.fresh (Lazy.force hit_ip2as);
          inputs;
          collection = s.Run_store.collection;
          graph = s.Run_store.graph;
          inference = s.Run_store.inference;
          probes = s.Run_store.probes;
          cache = s.Run_store.cache;
        }
      | None ->
        let r = compute vp in
        Run_store.save ?epoch st ~world:w ~pps ~cfg ~vp
          {
            Run_store.collection = r.collection;
            graph = r.graph;
            inference = r.inference;
            probes = r.probes;
            cache = r.cache;
          };
        r)
  in
  match pool with
  | None -> List.map run_vp vps
  | Some pool ->
    freeze_shared w inputs;
    ignore (Lazy.force shared);
    if store <> None then ignore (Lazy.force hit_ip2as);
    Pool.map pool run_vp vps

(* ------------------------------------------------------------------ *)
(* Epoch loop: freeze -> infer -> apply events -> incremental
   re-freeze -> infer -> ... The expensive full propagation runs once;
   every later epoch patches the previous snapshot and plan through
   [Bgp.refreeze] / [Forwarding.patch], re-propagating only the dirty
   prefix columns. *)

type epoch = {
  ep_index : int;
  ep_time : float;  (** simulated clock at the end of the epoch's batch *)
  ep_digest : string;  (** chained event-log digest (store-key component) *)
  ep_events : Topogen.Evolve.timed list;
  ep_stats : Routing.Bgp.refreeze_stats option;  (** [None] at epoch 0 *)
  ep_world : Gen.world;
  ep_shared : shared;
  ep_runs : run list;
}

let run_epochs ?cfg ?pool ?store ?(pps = 100.0) ?(validate = true) ~schedule
    ~vps (w : Gen.world) =
  Topogen.Evolve.validate_schedule schedule;
  let world = ref w in
  let digest = ref "" in
  let prev : shared option ref = ref None in
  let epoch_of e =
      let events, stats, shared =
        match (e, !prev) with
        | 0, _ | _, None ->
          (* Epoch 0: the one full freeze (store-warm when possible). *)
          ([], None, freeze_routing ?store ~epoch:!digest !world)
        | _, Some old ->
          let w', events = Topogen.Evolve.advance schedule ~epoch:e !world in
          world := w';
          digest := Topogen.Evolve.log_digest !digest events;
          let churn = Routing.Bgp.churn_of_events events in
          let snapshot, stats =
            Obs.Span.with_span ~stage:"freeze" ~vp:"shared" (fun () ->
                Routing.Bgp.refreeze (routing_input w') ~old:old.snapshot churn)
          in
          let fwd =
            Routing.Forwarding.create w'.Gen.net
              (Routing.Bgp.of_snapshot snapshot)
          in
          let plan =
            Obs.Span.with_span ~stage:"freeze" ~vp:"shared" (fun () ->
                Routing.Forwarding.patch ~egress_for:w'.Gen.siblings fwd
                  ~old:old.plan ~churn
                  ~dirty:stats.Routing.Bgp.rf_dirty_prefixes)
          in
          if validate then begin
            (* Prove the incremental path byte-identical to a scratch
               freeze of the evolved world: packed words, arena (modulo
               interning order), every LPM answer, every IGP distance and
               egress cell. Counted apart from the patched builds so
               build-accounting gates stay meaningful. *)
            let scratch =
              Routing.Bgp.freeze ~counter:"routing.snapshot.scratch_builds"
                (routing_input w')
            in
            (match Routing.Bgp.Snapshot.equal scratch snapshot with
            | Ok () -> ()
            | Error m ->
              invalid_arg
                (Printf.sprintf
                   "Pipeline.run_epochs: epoch %d snapshot diverged: %s" e m));
            let sfwd =
              Routing.Forwarding.create w'.Gen.net
                (Routing.Bgp.of_snapshot scratch)
            in
            let splan =
              Routing.Forwarding.freeze ~egress_for:w'.Gen.siblings sfwd
            in
            match
              Routing.Forwarding.plan_equal ~scratch:splan ~patched:plan
            with
            | Ok () -> ()
            | Error m ->
              invalid_arg
                (Printf.sprintf
                   "Pipeline.run_epochs: epoch %d plan diverged: %s" e m)
          end;
          (events, Some stats, { snapshot; plan })
      in
      prev := Some shared;
      let w' = !world in
      let inputs =
        inputs_of_world w' (Routing.Bgp.of_snapshot shared.snapshot)
      in
      let runs =
        execute_all ?cfg ?pool ?store ~shared ~epoch:!digest ~pps w' inputs
          ~vps:(vps w')
      in
      { ep_index = e;
        ep_time = float_of_int e *. schedule.Topogen.Evolve.ev_interval;
        ep_digest = !digest;
        ep_events = events;
        ep_stats = stats;
        ep_world = w';
        ep_shared = shared;
        ep_runs = runs }
  in
  (* Epochs are inherently sequential (each patches the previous
     snapshot), so build the list with an explicit in-order loop. *)
  let acc = ref [] in
  for e = 0 to schedule.Topogen.Evolve.ev_epochs do
    acc := epoch_of e :: !acc
  done;
  List.rev !acc
