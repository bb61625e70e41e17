(** The router-level graph assembled from traces and alias resolution
    (§5.3 "Build router-level graph"): nodes are alias groups, edges are
    consecutive responsive hops. Ownership heuristics walk this graph in
    order of observed hop distance from the VP.

    A node names its interfaces by id in the collection's address
    table: the graph keeps each node's alias-group members as ascending
    table ids (so ascending addresses), and {!observed_addrs} and
    {!all_addrs} read the addresses back through the table. *)

open Netcore

type node = {
  id : int;
  min_ttl : int;  (** closest observed hop distance *)
  dests : Asn.Set.t;  (** target ASes probed through this router *)
  last_toward : Asn.Set.t;  (** target ASes for which it closed the path *)
  trace_count : int;
}

type t

(** [build c] makes one node per alias group of [c]'s address table
    that holds an observed or a mate address; the group's table ids are
    the node's members. *)
val build : Collect.t -> t

val nodes : t -> node list

(** [node_count t] is the number of routers in the graph. *)
val node_count : t -> int

val node : t -> int -> node

(** [node_of_id t i] is the node whose alias group contains table id
    [i] of the collection's address table. *)
val node_of_id : t -> int -> node option

(** [succs t n] / [preds t n] are graph neighbors in path order. *)
val succs : t -> node -> node list

val preds : t -> node -> node list

(** [by_hop_distance t] is every node sorted by [min_ttl]. *)
val by_hop_distance : t -> node list

(** [observed_addrs t id] is node [id]'s members observed in
    TTL-expired replies, in ascending order. *)
val observed_addrs : t -> int -> Ipv4.t list

(** [all_addrs t id] is every member of node [id], observed or only
    named by alias resolution or prefixscan, in ascending order. *)
val all_addrs : t -> int -> Ipv4.t list

(** The codec of the nodes' target-AS sets, shared with the border-map
    file. *)
module Asn_set : sig
  val put : Store.Codec.writer -> (Store.Codec.writer -> int -> unit) -> Asn.Set.t -> unit
  val get : Store.Codec.reader -> min_bytes:int -> (Store.Codec.reader -> int) -> Asn.Set.t
end

(** [encode w t] writes every node's hop distance, target-AS sets and
    trace count in id order, and its successor ids; no addresses. *)
val encode : Store.Codec.writer -> t -> unit

(** [decode c r] reads what {!encode} wrote for the graph of [c]: the
    nodes and their addresses come from [c]'s address table, as in
    {!build}, and the predecessors from the successors. A node
    count unlike the table's, or a successor id past it, is
    rejected. *)
val decode : Collect.t -> Store.Codec.reader -> t
