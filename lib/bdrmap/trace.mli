(** A collected traceroute: the responsive hops (TTL-expired sources in
    order), the closing reply if any, and the target attribution. *)

open Netcore

type closing = Echo of Ipv4.t | Unreach of Ipv4.t | Nothing

type t = {
  dst : Ipv4.t;
  target_asn : Asn.t;  (** AS whose block was being probed *)
  hops : (int * Ipv4.t) list;  (** (ttl, source) of TTL-expired replies *)
  closing : closing;
  stopped : bool;  (** halted early by the stop set *)
}

(** [hop_addrs t] is the TTL-expired sources in path order. *)
val hop_addrs : t -> Ipv4.t list

(** [pairs t] is consecutive responsive hop pairs, with a flag marking
    whether unresponsive hops sat between them. *)
val pairs : t -> (Ipv4.t * Ipv4.t * bool) list

(** [encode w traces] writes [traces] as a table of the distinct
    (ttl, address) hops, a table of the distinct hop-list suffixes
    over it, and per-trace columns that name each hop list by id. *)
val encode : Store.Codec.writer -> t list -> unit

(** [decode r] reads what {!encode} wrote; traces share one hop tuple
    per distinct hop and one cons cell per distinct suffix. *)
val decode : Store.Codec.reader -> t list
