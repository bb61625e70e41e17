(** End-to-end orchestration: assemble the §5.2 input artifacts from the
    simulated public data sources (through their text serializations, so
    the inference consumes exactly what a real deployment would parse),
    run collection (§5.3) and inference (§5.4) from one VP. *)

open Netcore
module Gen = Topogen.Gen
module Engine = Probesim.Engine

type inputs = {
  rib : Bgpdata.Rib.t;  (** public collector view *)
  rels : Bgpdata.As_rel.t;  (** relationships inferred from public paths *)
  ixp : Bgpdata.Ixp.t;
  delegations : Bgpdata.Delegation.t;
  vp_asns : Asn.Set.t;
}

(** [inputs_of_world w bgp] builds the public view seen by [w]'s
    collectors, infers relationships from it, and round-trips every
    artifact through its text format. *)
val inputs_of_world : Gen.world -> Routing.Bgp.t -> inputs

type run = {
  cfg : Config.t;
  ip2as : Ip2as.t;
  inputs : inputs;
  collection : Collect.t;
  graph : Rgraph.t;
  inference : Heuristics.result;
  probes : int;
      (** the engine's probe counter when the run finished (cumulative
          if the engine was shared across runs) *)
  cache : Engine.cache_stats;  (** path-memo counters, same caveat *)
}

(** [execute ?cfg engine inputs ~vp] runs the full pipeline from [vp]. *)
val execute : ?cfg:Config.t -> Engine.t -> inputs -> vp:Gen.vp -> run

(** The shared routing state of a world: one BGP snapshot plus one
    forwarding plan. Pure immutable data — built once, attached by
    reference from every worker domain. *)
type shared = {
  snapshot : Routing.Bgp.snapshot;
  plan : Routing.Forwarding.plan;
}

(** [freeze_routing ?store w] builds the shared routing state for [w]:
    the packed per-prefix BGP tables and the forwarding plan (egress
    precomputed for the VP-owning ASes). With [store], the packed
    snapshot round-trips through {!Run_store.load_bgp_snapshot} /
    {!Run_store.save_bgp_snapshot}, so warm sweeps skip the propagation
    compute. Traced as the ["freeze"] stage; the snapshot build is
    counted under [routing.snapshot.builds].
    [?epoch] (the chained event-log digest of {!Topogen.Evolve}) keys
    evolved-world snapshots apart in the store; the default [""] is the
    unevolved world. *)
val freeze_routing : ?store:Store.t -> ?epoch:string -> Gen.world -> shared

(** [setup ?store ?pps world] builds the routing/probing stack for a
    world: [(shared, forwarding, engine, inputs)]. The snapshot is built
    once, through {!freeze_routing} (so [store] can serve the
    snapshot); the forwarding stack and the collector view both answer
    from that snapshot and plan. Pass [shared] on to {!execute_all} so
    later sweeps reuse it instead of freezing again. *)
val setup :
  ?store:Store.t ->
  ?pps:float ->
  Gen.world ->
  shared * Routing.Forwarding.t * Engine.t * inputs

(** [execute_all ?pool w inputs ~vps] runs the full pipeline from every
    vantage point in [vps], on [pool]'s worker domains when one is
    given, and returns the runs in [vps] order.  Routing state is a
    pure function of the world, so all VPs answer from one shared
    snapshot + plan ([shared], built lazily by {!freeze_routing} when
    not supplied — pass one to amortize it across sweeps); what stays
    per-VP is the genuinely mutable probing stack (engine clock, probe
    counter, path memo, RNG, IP-ID state) plus thin private caches, so
    the result is byte-identical whatever the pool size — parallelism
    only changes wall-clock.

    [store] adds persistent per-VP checkpointing through {!Run_store}:
    each VP's completed run is snapshotted as soon as it finishes, a
    warm invocation deserializes instead of recomputing (byte-identical
    by the determinism above), and a run killed mid-sweep resumes from
    the last completed VP. Corrupt or stale entries fall back to
    recomputation. A fully store-warm sweep without a pool never forces
    the freeze. *)
val execute_all :
  ?cfg:Config.t ->
  ?pool:Pool.t ->
  ?store:Store.t ->
  ?shared:shared ->
  ?epoch:string ->
  ?pps:float ->
  Gen.world ->
  inputs ->
  vps:Gen.vp list ->
  run list

(** {1 Epoch loop}

    Temporal churn: freeze once, then per epoch apply the evolution
    batch, incrementally re-freeze (only dirty prefixes re-propagate;
    the forwarding plan re-scores only dirty columns), and re-run
    inference. *)

type epoch = {
  ep_index : int;  (** 0 is the unevolved world *)
  ep_time : float;  (** simulated clock at the end of the epoch *)
  ep_digest : string;
      (** chained event-log digest; keys this epoch's store entries *)
  ep_events : Topogen.Evolve.timed list;  (** applied this epoch *)
  ep_stats : Routing.Bgp.refreeze_stats option;  (** [None] at epoch 0 *)
  ep_world : Gen.world;  (** the evolved world (shared [Net.t], mutated) *)
  ep_shared : shared;  (** patched snapshot + plan for this epoch *)
  ep_runs : run list;  (** one per VP returned by [vps] *)
}

(** [run_epochs ~schedule ~vps w] drives the epoch loop: one full
    freeze at epoch 0, then [schedule.ev_epochs] rounds of
    {!Topogen.Evolve.advance} + {!Routing.Bgp.refreeze} +
    {!Routing.Forwarding.patch} + a full inference sweep over
    [vps ep_world]. With [validate] (the default), every patched epoch
    is checked against a from-scratch freeze — packed words, arena,
    LPM answers ({!Routing.Bgp.Snapshot.equal}) and the whole
    forwarding plan ({!Routing.Forwarding.plan_equal}) — and any
    divergence raises [Invalid_argument]; the scratch freezes are
    counted under [routing.snapshot.scratch_builds], leaving the
    incremental accounting ([routing.snapshot.builds] = 1,
    [routing.snapshot.patches] = N) intact. [store] keys every epoch's
    artifacts by [ep_digest]. *)
val run_epochs :
  ?cfg:Config.t ->
  ?pool:Pool.t ->
  ?store:Store.t ->
  ?pps:float ->
  ?validate:bool ->
  schedule:Topogen.Evolve.schedule ->
  vps:(Gen.world -> Gen.vp list) ->
  Gen.world ->
  epoch list

(** [freeze_shared w inputs] forces the lazily built indices of the
    structures parallel runs share read-only. Called automatically by
    {!execute_all}; exposed for callers that fan out by hand. *)
val freeze_shared : Gen.world -> inputs -> unit
