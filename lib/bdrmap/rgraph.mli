(** The router-level graph assembled from traces and alias resolution
    (§5.3 "Build router-level graph"): nodes are alias groups, edges are
    consecutive responsive hops. Ownership heuristics walk this graph in
    order of observed hop distance from the VP. *)

open Netcore

type node = {
  id : int;
  addrs : Ipv4.Set.t;  (** addresses observed in TTL-expired replies *)
  extra_addrs : Ipv4.Set.t;  (** alias-group members never seen in traces *)
  min_ttl : int;  (** closest observed hop distance *)
  dests : Asn.Set.t;  (** target ASes probed through this router *)
  last_toward : Asn.Set.t;  (** target ASes for which it closed the path *)
  trace_count : int;
}

type t

val build : Collect.t -> t

val nodes : t -> node list

(** [node_count t] is the number of routers in the graph. *)
val node_count : t -> int

val node : t -> int -> node

(** [node_of_addr t a] is the node whose group contains [a]. *)
val node_of_addr : t -> Ipv4.t -> node option

(** [succs t n] / [preds t n] are graph neighbors in path order. *)
val succs : t -> node -> node list

val preds : t -> node -> node list

(** [by_hop_distance t] is every node sorted by [min_ttl]. *)
val by_hop_distance : t -> node list

(** [all_addrs n] is observed plus merged addresses. *)
val all_addrs : node -> Ipv4.t list

(** The codecs of the node sets, shared with the border-map file. *)
module Addr_set : sig
  val put : Store.Codec.writer -> (Store.Codec.writer -> int -> unit) -> Ipv4.Set.t -> unit
  val get : Store.Codec.reader -> min_bytes:int -> (Store.Codec.reader -> int) -> Ipv4.Set.t
end

module Asn_set : sig
  val put : Store.Codec.writer -> (Store.Codec.writer -> int -> unit) -> Asn.Set.t -> unit
  val get : Store.Codec.reader -> min_bytes:int -> (Store.Codec.reader -> int) -> Asn.Set.t
end

(** [encode w t] writes every node's sets and counts in id order and
    its successor ids. *)
val encode : Store.Codec.writer -> t -> unit

(** [decode r] reads what {!encode} wrote, deriving the address index
    and the predecessor sets. Two nodes claiming one address, or a
    successor id past the node count, are rejected. *)
val decode : Store.Codec.reader -> t
