(** A collected traceroute: the responsive hops (TTL-expired sources in
    order), the closing reply if any, and the target attribution. A hop
    names its source by id: a registry id ({!Aliasres.Alias_graph.Uf})
    while collection runs, a table id ({!Aliasres.Alias_graph.t}) once
    it ends. *)

open Netcore

type closing = Echo of Ipv4.t | Unreach of Ipv4.t | Nothing

type t = {
  dst : Ipv4.t;
  target_asn : Asn.t;  (** AS whose block was being probed *)
  hops : int array;  (** TTL-expired replies in path order, one {!hop} each *)
  closing : closing;
  stopped : bool;  (** halted early by the stop set *)
}

(** [hop ~ttl id] packs a hop into one int: [ttl], which must lie in
    1..255, in the low 8 bits and the source [id] above them. *)
val hop : ttl:int -> int -> int

(** [ttl h] and [id h] unpack a {!hop}. *)
val ttl : int -> int

val id : int -> int

(** [iter_pairs f t] calls [f id1 id2 gap] on each two consecutive
    responsive hops in path order, [gap] marking whether unresponsive
    hops sat between them. It allocates nothing. *)
val iter_pairs : (int -> int -> bool -> unit) -> t -> unit

(** [encode w traces] writes [traces] as a table of the distinct
    (ttl, table id) hops, a table of the distinct hop-list suffixes
    over it, and per-trace columns that name each hop list by id. *)
val encode : Store.Codec.writer -> t list -> unit

(** [decode table r] reads what {!encode} wrote for traces over
    [table]; traces that took one path share its hop array. A hop TTL
    outside 1..255, or an id that is not an observed address of
    [table], is rejected. *)
val decode : Aliasres.Alias_graph.t -> Store.Codec.reader -> t list
