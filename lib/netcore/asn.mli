(** Autonomous system numbers. *)

type t = int

val to_string : t -> string
val of_string : string -> t option
val compare : t -> t -> int
val equal : t -> t -> bool

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t

(** [most_frequent l] is the most common element of [l], breaking ties by
    the smaller ASN; [None] on the empty list. *)
val most_frequent : t list -> t option

(** [counts l] is the multiset of [l] as sorted (asn, count) pairs. *)
val counts : t list -> (t * int) list
