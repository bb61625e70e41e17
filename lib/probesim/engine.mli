(** The probing surface of the simulated Internet. This is the only
    interface the inference pipeline may use to interact with the world:
    it issues the probe types scamper issues (Paris traceroute, ICMP
    echo, UDP to unused ports) and receives replies shaped by the
    response pathologies of §4:

    - TTL-expired source selection: inbound interface (common),
      transmit-interface toward the reply destination (third-party
      addresses), or the would-be forwarding interface (virtual routers);
    - echo replies always sourced from the probed address;
    - firewalled edges: the neighbor's border router answers but probes
      never travel deeper (§5.4.2);
    - echo-only edges: no TTL-expired at all, but echo/unreachable
      replies from the border (§5.4.8 step 8.2);
    - fully silent networks (§5.4.8 step 8.1);
    - per-router IP-ID behaviour for alias resolution.

    A simulated clock advances by [1/pps] per probe; drivers can also
    advance it explicitly (Ally repeats its trials at 5-minute spacing).

    Answering a probe is a few table reads. A traceroute's forward path
    is walked once per trace ({!Routing.Forwarding.trace}) and kept in
    the engine until a probe asks for another (source, destination,
    flow); the walk is pure, so a re-trace recomputes an equal path.
    The reply source of a router that answers from its route (toward
    the destination or the prober) is resolved once per hop of that
    path. Per-router facts — whether direct probes reach the router, and the
    source of a reply leaving by its AS's primary exit — are computed at
    most once per engine, and IP-ID counters are keyed by int. An engine
    assumes its world's topology does not change under it.

    What does carry state from probe to probe is the simulated clock,
    the IP-ID counters and the fault state (loss streams, token buckets,
    dark quotas), which is why a run on a shared engine depends on what
    that engine answered before. *)

open Netcore
module Net = Topogen.Net
module Gen = Topogen.Gen

type t

(** [create ?pps ?fault w fwd] builds the probing surface over [w].

    [fault] is the impairment overlay (default: [Fault.of_profile w],
    i.e. whatever [w.params.fault] asks for — nothing, for
    {!Gen.zero_fault}). *)
val create : ?pps:float -> ?fault:Fault.config -> Gen.world -> Routing.Forwarding.t -> t

val world : t -> Gen.world
val now : t -> float
val advance : t -> float -> unit
val probe_count : t -> int
val pps : t -> float

type cache_stats = {
  hits : int;  (** trace probes answered from the current trace's path *)
  misses : int;  (** forward-path walks *)
}

(** Path-memo counters: a Paris traceroute of [n] TTLs is one miss and
    [n - 1] hits. *)
val stats : t -> cache_stats

val encode_cache_stats : Store.Codec.writer -> cache_stats -> unit
val decode_cache_stats : Store.Codec.reader -> cache_stats

(** The impairment config this engine runs under and the drop
    counters it has accumulated. *)
val fault_config : t -> Fault.config

val fault_stats : t -> Fault.stats

type icmp_kind = Ttl_expired | Echo_reply | Dest_unreach

type reply = { src : Ipv4.t; kind : icmp_kind; ipid : int; responder : int }
(** [responder] is the true router id — ground truth carried for
    validation and debugging only; inference code must not read it. *)

(** [trace_probe ?flow t ~vp ~dst ~ttl] sends one traceroute probe.
    [flow] is the five-tuple stand-in hashed by ECMP (default 0 = the
    Paris-traceroute fixed flow). *)
val trace_probe : ?flow:int -> t -> vp:Gen.vp -> dst:Ipv4.t -> ttl:int -> reply option

type hop = { ttl : int; reply : reply option }

(** [traceroute ?paris t ~vp ~dst ()] probes ttl 1.. with a gap limit:
    the trace stops after [gap_limit] consecutive unresponsive hops
    (default 5) or when an echo/unreachable reply arrives, mirroring
    scamper. [paris] (default true) keeps the flow identifier constant;
    [false] models classic traceroute, whose per-probe flows wobble
    across load-balanced equal-cost paths [Augustin et al. 2006]. *)
val traceroute :
  ?paris:bool ->
  t -> vp:Gen.vp -> dst:Ipv4.t -> ?max_ttl:int -> ?gap_limit:int -> unit -> hop list

(** [ping t ~dst] sends an ICMP echo to [dst] directly. *)
val ping : t -> dst:Ipv4.t -> reply option

(** [udp_probe t ~dst] sends a UDP probe to an unused port (Mercator). *)
val udp_probe : t -> dst:Ipv4.t -> reply option
