(** Sets of IPv4 addresses represented as sorted disjoint intervals.
    Used to compute the address blocks an AS routes: the covering prefix
    minus its more-specific subnets (§5.3 "Generate list of address
    blocks to probe"). *)

type t

val empty : t

(** [add_range lo hi t] adds the inclusive range [lo, hi]. *)
val add_range : Ipv4.t -> Ipv4.t -> t -> t

val add_prefix : Prefix.t -> t -> t
val remove_prefix : Prefix.t -> t -> t

(** [ranges t] is the sorted list of disjoint inclusive ranges. *)
val ranges : t -> (Ipv4.t * Ipv4.t) list
