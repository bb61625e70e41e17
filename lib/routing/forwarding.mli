(** Router-level forwarding over the simulated topology: intra-AS
    shortest paths (IGP) plus hot-potato egress selection among the
    BGP-equal next hops (§6: the mechanism behind Figures 14-16).

    A packet at a router is delivered locally when its address matches a
    local interface, forwarded internally toward the home router when the
    current AS originates the longest-match prefix, and otherwise pushed
    across the interdomain link that is IGP-nearest among the candidate
    egresses for the destination prefix. *)

open Netcore
module Net = Topogen.Net

type t

(** A forwarding plan: one all-pairs IGP distance matrix per AS over
    all of its routers, egress choices for the hot (VP-owning) ASes,
    and the interdomain-link index — precomputed once and never written
    again, so a plan is safe to share by reference across
    [Netcore.Pool] domains. The egress table is packed into a
    [Bigarray] (GC-invisible plain words) indexed by a small per-router
    row table and a per-prefix-slot column map: prefixes with the same
    snapshot route row and the same selective pins share one column,
    since that is all the egress choice reads of them. The per-AS
    matrices are separate arrays so a patched plan
    can share unchanged ones. Egress cells of routers outside the hot
    ASes are scored on first use into each instance's private memo. *)
type plan

(** [create ?plan net bgp] builds forwarding state over [bgp]. With
    [plan], every lookup answers from the plan's shared tables; without
    it, the instance builds its own plan (IGP matrices and link index,
    no egress rows) on first use. A plan must only be paired with a
    [bgp] answering identically to the one it was built from. *)
val create : ?plan:plan -> Net.t -> Bgp.t -> t

(** [freeze ?egress_for t] precomputes the shared read-only plan:
    the interdomain-link index, every AS's all-pairs IGP distances, and
    — for each AS in [egress_for] — the egress choice of each of its
    routers for every routed prefix. Each distinct candidate-link set
    of an AS is scored once for all its routers, by the same rule the
    private memo applies to one router. Counted under the
    [routing.plan.builds] metric. *)
val freeze : ?egress_for:Asn.Set.t -> t -> plan

(** [patch ?egress_for t ~old ~churn ~dirty] is the incremental form of
    {!freeze}: [t] must be a fresh instance over the post-churn net and
    the patched snapshot, [old] the pre-churn plan, [dirty] the
    prefixes whose route row may differ from their old one
    ([Bgp.refreeze_stats.rf_dirty_prefixes]). The IGP matrix of every
    AS whose routers are unchanged is shared with [old] by reference
    (evolution never alters the routers or internal links of an
    existing AS); only new ASes run Dijkstra. An egress column holding
    a clean prefix (not dirty, same pins) is copied from that prefix's
    old column, one contiguous run per AS; columns are re-scored only
    when they hold no clean prefix, for ASes new to the plan, and for
    routes whose next-hop set intersects an AS pair with changed
    physical links, decided on the packed route word and its next-hop
    segment.
    The result satisfies {!plan_equal} against a scratch [freeze] of
    [t]. Counted under [routing.plan.patches], with recomputed cells
    under [routing.plan.patched_cells]. *)
val patch :
  ?egress_for:Asn.Set.t ->
  t ->
  old:plan ->
  churn:Bgp.churn ->
  dirty:Prefix.t list ->
  plan

(** [plan_equal ~scratch ~patched] is semantic equality between two
    plans of the same world: identical router/prefix axes and AS
    partition, bit-equal IGP matrices, the same egress choice for every
    planned router and prefix slot, and the same interdomain-link
    index. The forwarding-side
    oracle of the churn tests. [Error] carries the first mismatch. *)
val plan_equal : scratch:plan -> patched:plan -> (unit, string) result

type hop =
  | Deliver  (** the destination address is on this router *)
  | Sink  (** this router is the home of the prefix; no such host *)
  | Forward of Net.link  (** next hop across this link *)
  | Unreachable

(** [egress_link t ~rid ~dst] is the interdomain link this AS would use
    to leave toward [dst], from the perspective of router [rid]
    (hot-potato), if the route exits the AS. *)
val egress_link : t -> rid:int -> dst:Ipv4.t -> Net.link option

(** [igp_distance t ~from_rid ~to_rid] is the intra-AS IGP distance;
    [infinity] when the routers are in different ASes or disconnected. *)
val igp_distance : t -> from_rid:int -> to_rid:int -> float

(** One step of a router path: the router and the link the packet
    arrived on ([None] for the source router). *)
type step = { rid : int; in_link : Net.link option }

(** [path ?flow t ~src_rid ~dst ?max_hops ()] walks the full router path,
    starting with the first router after the source. The walk stops at
    delivery, at the prefix's home router, at an unreachable point, or
    after [max_hops] (default 64). [flow] selects among equal-cost
    internal paths. The destination's home router and prefix slot are
    resolved once per walk, and the route word once per AS crossed. *)
val path :
  ?flow:int -> t -> src_rid:int -> dst:Ipv4.t -> ?max_hops:int -> unit -> step list

(** How a probe's forward walk ends: delivered to the address,
    sunk at the prefix's home router (no such host), or dropped
    (unreachable, filtered, or out of hops). *)
type terminal = Delivered | Sunk | Dropped

(** A probe's forward path, written in place: the first [hops] entries
    of [rids] are the routers after the source and [lids] the link
    each was entered on; [term] is how the walk ended. *)
type trace = {
  mutable hops : int;
  rids : int array;
  lids : int array;
  mutable term : terminal;
}

(** [trace_buffer ()] is an empty trace with room for 64 hops. *)
val trace_buffer : unit -> trace

(** [trace ?flow t tr ~src_rid ~dst] is the walk of {!path} (at most 64
    hops) as a probe sees it, written into [tr]: it also stops at the
    first border router of an AS whose edge filters probes, which is
    the last hop a traceroute can elicit there; such a probe is
    delivered only when that border holds [dst] itself. *)
val trace : ?flow:int -> t -> trace -> src_rid:int -> dst:Ipv4.t -> unit

(** [reply_iface t ~rid ~reply_to] is the interface address router [rid]
    would use as source when transmitting a packet toward [reply_to]
    (RFC 1812 behaviour, §4 challenge 2): the address of its interface on
    the first link of the path toward [reply_to]. [None] when the router
    cannot route back or the first hop is ambiguous. *)
val reply_iface : t -> rid:int -> reply_to:Ipv4.t -> Ipv4.t option

(** [forward_iface t ~rid ~dst] is the interface address router [rid]
    would forward [dst]-bound packets from (virtual-router reply
    selection, §4 challenge 4). *)
val forward_iface : t -> rid:int -> dst:Ipv4.t -> Ipv4.t option
