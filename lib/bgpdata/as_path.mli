(** BGP AS paths: leftmost element is the collector-adjacent AS, rightmost
    the origin. Prepending is preserved; [compact] removes it. *)

type t = Netcore.Asn.t list

val origin : t -> Netcore.Asn.t option

(** [compact p] removes consecutive duplicate ASNs (prepending). *)
val compact : t -> t

(** [links p] is the list of adjacent AS pairs in the compacted path. *)
val links : t -> (Netcore.Asn.t * Netcore.Asn.t) list

(** [has_loop p] is true when an ASN reappears after an intervening AS. *)
val has_loop : t -> bool

val of_string : string -> t option
val to_string : t -> string
