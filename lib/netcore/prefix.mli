(** CIDR IPv4 prefixes in canonical form (host bits zeroed). *)

type t = private { network : Ipv4.t; len : int }

(** [make addr len] canonicalizes [addr] by masking host bits.
    Raises [Invalid_argument] if [len] is outside [0, 32]. *)
val make : Ipv4.t -> int -> t

val network : t -> Ipv4.t
val len : t -> int

(** [of_string "192.0.2.0/24"] parses CIDR notation. *)
val of_string : string -> t option

val of_string_exn : string -> t
val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool

(** [mem addr p] is true when [addr] falls inside [p]. *)
val mem : Ipv4.t -> t -> bool

(** [first p] is the network address, [last p] the broadcast address. *)
val first : t -> Ipv4.t

val last : t -> Ipv4.t

(** [size p] is the number of addresses covered, as an int. *)
val size : t -> int

(** [split p] halves [p] into its two /len+1 children.
    Raises [Invalid_argument] on a /32. *)
val split : t -> t * t

(** [subnet_mate addr len] is the other address of [addr]'s /31 (len = 31)
    or the other usable address of its /30 (len = 30). For /30 the network
    and broadcast addresses have no mate and yield [None]. *)
val subnet_mate : Ipv4.t -> int -> Ipv4.t option

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
