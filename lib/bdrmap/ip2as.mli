(** IP-to-AS classification over the input artifacts of §5.2: the public
    RIB (longest-prefix match), the IXP peering-LAN list, and the RIR
    delegation files.

    Addresses that are unrouted in BGP but fall in blocks the RIR
    delegated to the same organization as the hosting network's routed
    space are classified [Host] — this implements §5.4.1's estimation of
    unannounced VP address space, and also reproduces the paper's fig-12
    limitation for provider-aggregatable space reused by customers. *)

open Netcore

type cls =
  | Host  (** originated by (or delegated to) the hosting org *)
  | External of Asn.Set.t  (** origin ASes of the longest match *)
  | Ixp of string
  | Unrouted
  | Reserved

type t

val create :
  rib:Bgpdata.Rib.t ->
  ixp:Bgpdata.Ixp.t ->
  delegations:Bgpdata.Delegation.t ->
  vp_asns:Asn.Set.t ->
  t

(** [fresh t] classifies like [t], over the same inputs and the host
    organizations [t] derived, with its own empty memo: the cheap way
    to give each vantage point a private classifier. *)
val fresh : t -> t

val classify : t -> Ipv4.t -> cls

(** [is_host t a] is true when [classify] yields [Host]. *)
val is_host : t -> Ipv4.t -> bool

(** [single_external t a] is the unique external origin of [a], if the
    longest match has exactly one origin outside the hosting org. *)
val single_external : t -> Ipv4.t -> Asn.t option

(** [routed_prefixes t] is the number of RIB prefixes indexed. *)
val routed_prefixes : t -> int
