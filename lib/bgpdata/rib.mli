(** A routing-table view assembled from collector snapshots: for each
    routed prefix, the set of origin ASes observed, and the AS paths seen
    toward it. Mirrors the Route Views / RIPE RIS input of §5.2.

    Text format, one route per line:
    {v prefix|path v}
    e.g. {v 128.66.0.0/16|7018 3356 64501 v}
    The origin is the last ASN of the path. Multiple lines per prefix
    accumulate origins and paths. Lines starting with '#' are comments. *)

open Netcore

type t

val empty : t

(** [add_route t prefix path] records one collector route. Prefixes
    outside the /8–/24 size window are ignored, as in §5.2. *)
val add_route : t -> Prefix.t -> As_path.t -> t

val prefixes : t -> Prefix.t list
val cardinal : t -> int

(** [origins t p] is the set of origin ASes observed for exactly [p]. *)
val origins : t -> Prefix.t -> Asn.Set.t

(** [paths t p] is every AS path observed toward [p]. *)
val paths : t -> Prefix.t -> As_path.t list

val all_paths : t -> As_path.t list

(** [lpm t addr] is the longest matching routed prefix and its origins. *)
val lpm : t -> Ipv4.t -> (Prefix.t * Asn.Set.t) option

(** [freeze t] forces the flattened LPM index behind [lpm]/
    [origin_asns] so later lookups — from any domain — are read-only.
    Idempotent; a no-op on tables too small to benefit. Any
    [add_route] after a freeze returns a fresh table with no flattened index. *)
val freeze : t -> unit

(** [origin_asns t addr] is the origin set of the longest match, or the
    empty set when [addr] is unrouted. *)
val origin_asns : t -> Ipv4.t -> Asn.Set.t

(** [prefixes_originated_by t asns] is every prefix whose origin set
    intersects [asns]. *)
val prefixes_originated_by : t -> Asn.Set.t -> Prefix.t list

(** [more_specifics t p] is the routed prefixes strictly more specific
    than [p]. *)
val more_specifics : t -> Prefix.t -> Prefix.t list

val to_lines : t -> string list
val of_lines : string list -> (t, string) result
