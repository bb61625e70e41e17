(** The simulated router-level internetwork: ground truth for experiments,
    probed only through {!Probesim.Engine} by the inference code.

    Terminology follows the paper: an {e interdomain link} connects border
    routers of two ASes, numbered from a /30 or /31 supplied by one side
    (usually the provider), or from an IXP peering LAN. *)

open Netcore

type as_kind = Tier1 | Transit | Access | Content | Enterprise | Stub | Ree
(** [Ree] is a research-and-education network (the R&E validation case). *)

(** How an AS announces its prefixes to direct neighbors: everywhere, or
    each prefix pinned to specific interconnect links (Akamai-style,
    drives Figures 15 and 16). *)
type announce_policy = All_links | Per_link

(** Edge response behaviour of an AS toward probes entering it (§4, §5.4.2,
    §5.4.8): [Open] forwards and responds normally; [Firewall] responds
    with TTL-expired at the border but drops probes going deeper;
    [Echo_only] firewalls and disables TTL-expired but answers echo probes
    to its own addresses; [Silent] never responds at all. *)
type edge_filter = Open | Firewall | Echo_only | Silent

type as_node = {
  asn : Asn.t;
  kind : as_kind;
  org : string;
  cities : Geo.city list;
  mutable prefixes : Prefix.t list;  (** originated in BGP *)
  mutable infra : Prefix.t list;  (** infrastructure blocks (may be unannounced) *)
  announce_infra : bool;  (** false: infra space is unrouted (§5.4.3) *)
  filter : edge_filter;
  policy : announce_policy;
}

(** Source-address selection for TTL-expired replies (§4 challenges 2, 4):
    [Inbound] uses the interface the probe arrived on (common case);
    [Toward_reply] uses the interface that transmits the reply (RFC 1812
    advice — the third-party address generator); [Toward_dst] uses the
    interface the probe would have departed from (virtual-router case). *)
type ttl_src_mode = Inbound | Toward_reply | Toward_dst

(** IP-ID counter behaviour, the signal for Ally/MIDAR: [Shared_counter]
    is one central counter for all interfaces; [Per_iface] defeats Ally;
    [Random_id] and [Zero_id] are unresponsive-to-velocity cases. *)
type ipid_mode = Shared_counter | Per_iface | Random_id | Zero_id

(** Mercator behaviour for UDP probes to unused ports: [Canonical]
    replies with a fixed router address; [Probed_addr] replies with the
    probed address (useless for aliasing); [No_udp] stays quiet. *)
type udp_mode = Canonical | Probed_addr | No_udp

type behavior = {
  ttl_expired : bool;  (** sends TTL-expired at all *)
  ttl_src : ttl_src_mode;
  echo : bool;  (** answers ICMP echo to its own addresses *)
  unreach : bool;  (** sends destination unreachable as a prefix's home *)
  udp : udp_mode;
  ipid : ipid_mode;
}

type router = {
  rid : int;
  owner : Asn.t;
  city : Geo.city;
  behavior : behavior;
  mutable canonical : Ipv4.t option;  (** loopback used by [Canonical] *)
  mutable ifaces : iface list;
}

and iface = { addr : Ipv4.t; link : int }

type link_kind =
  | Internal  (** intra-AS *)
  | Private_interconnect of Prefix.t  (** the /30 or /31 subnet *)
  | Ixp_lan of string  (** peering across a named IXP LAN *)

type link = {
  lid : int;
  kind : link_kind;
  a : int * Ipv4.t;  (** router id, interface address *)
  b : int * Ipv4.t;
  weight : float;  (** IGP metric (geographic distance based) *)
  live : bool;  (** false once retired by {!remove_link} *)
}

type t

val create : unit -> t
val add_as : t -> as_node -> unit
val as_node : t -> Asn.t -> as_node
val ases : t -> as_node list
val asns : t -> Asn.Set.t

val add_router :
  t -> owner:Asn.t -> city:Geo.city -> behavior:behavior -> router

val router : t -> int -> router
val router_count : t -> int
val routers_of : t -> Asn.t -> router list

(** [add_link t kind (r1, a1) (r2, a2) ~weight] wires two routers and
    registers both interface addresses. *)
val add_link : t -> link_kind -> router * Ipv4.t -> router * Ipv4.t -> weight:float -> link

val link : t -> int -> link

val link_count : t -> int
(** Allocated link slots, including retired ones: lids stay dense so
    flat per-lid arrays remain valid across {!remove_link}. *)

val links : t -> link list
(** Live links only. *)

(** [remove_link t lid] retires a link in place: it disappears from
    {!links}/{!neighbors}, both routers drop the interface, and the
    interface addresses leave the address index (canonical addresses
    stay). Idempotent; the lid remains allocated. *)
val remove_link : t -> int -> unit

(** [peer_of t link rid] is the far (router, address) of [link] seen from
    router [rid]. *)
val peer_of : t -> link -> int -> int * Ipv4.t

(** [neighbors t rid] is each (link, far router id) adjacent to [rid]. *)
val neighbors : t -> int -> (link * int) list

(** [internal_neighbors t rid] restricts to intra-AS links; the lists
    are built with the adjacency, so a call only reads an array. *)
val internal_neighbors : t -> int -> (link * int) list

(** [owner_of_addr t addr] is the router owning interface [addr]. *)
val owner_of_addr : t -> Ipv4.t -> router option

(** [set_home t p rid] declares router [rid] as the home of originated
    prefix [p]: probes to addresses of [p] terminate there. *)
val set_home : t -> Prefix.t -> int -> unit

(** [home_of t addr] is the home router of the longest matching
    originated prefix. *)
val home_of : t -> Ipv4.t -> router option

(** [interdomain_links t] is every non-internal link. *)
val interdomain_links : t -> link list

(** [interdomain_links_between t x y] is every interdomain link whose
    endpoint routers are owned by [x] and [y]. *)
val interdomain_links_between : t -> Asn.t -> Asn.t -> link list

(** [set_canonical t r addr] assigns the router's loopback and indexes it. *)
val set_canonical : t -> router -> Ipv4.t -> unit
