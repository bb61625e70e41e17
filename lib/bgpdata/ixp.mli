(** IXP peering-LAN registry assembled from PeeringDB- and PCH-style
    dumps (§5.2). Two record kinds, one per line:
    {v prefix|<cidr>|<ixp-name> v} — a peering LAN subnet
    {v member|<ip>|<asn>|<ixp-name> v} — an address a member AS uses on
    the LAN (used for validation of ownership inferences in §5.6). *)

open Netcore

type t

val empty : t
val add_prefix : t -> Prefix.t -> string -> t
val add_member : t -> Ipv4.t -> Asn.t -> string -> t

(** [ixp_of t addr] is the IXP whose peering LAN contains [addr]. *)
val ixp_of : t -> Ipv4.t -> string option

val is_ixp_addr : t -> Ipv4.t -> bool

(** [member_of t addr] is the AS registered as using [addr] on an IXP
    LAN, if recorded. *)
val member_of : t -> Ipv4.t -> Asn.t option

val prefixes : t -> (Prefix.t * string) list
val members : t -> (Ipv4.t * Asn.t * string) list

val to_lines : t -> string list
val of_lines : string list -> (t, string) result
