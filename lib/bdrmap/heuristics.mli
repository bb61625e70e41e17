(** The ordered border-inference heuristics of §5.4. Routers are visited
    in order of observed hop distance from the VP; the first heuristic
    that fires assigns the owner and is recorded, reproducing the rows of
    Table 1. Steps:

    1 — routers operated by the hosting network, with the multihomed-
        neighbor exception (§5.4.1);
    2 — neighbors behind firewalls: last router toward an AS carries the
        host-assigned ingress address (§5.4.2);
    3 — routers numbered from unrouted space (§5.4.3);
    4 — "onenet": two consecutive hops in one external AS (§5.4.4);
    5 — relationship-guided inference: third-party detection, known
        peers/customers, missing customers, hidden peers (§5.4.5);
    6 — IP-AS fallbacks in ambiguous multi-AS scenarios (§5.4.6);
    7 — analytical alias merging of single-interface near routers
        (§5.4.7);
    8 — silent and echo-only neighbors placed by their consistent last
        host router (§5.4.8). *)

open Netcore

type tag =
  | T1_multihomed
  | T2_firewall
  | T3_unrouted
  | T4_onenet
  | T5_third_party
  | T5_relationship
  | T5_missing_customer
  | T5_hidden_peer
  | T6_count
  | T6_ipas
  | T8_silent
  | T8_other_icmp

(** [all_tags] is every tag once, in Table 1 order; a tag's index here
    is its byte in the run-store codec. *)
val all_tags : tag array

val tag_label : tag -> string

type owner =
  | Host_router  (** operated by the hosting network *)
  | Neighbor of Asn.t * tag
  | Unknown

type border_link = {
  near_node : int option;  (** node id of the VP-side router, if observed *)
  far_node : int option;  (** node id of the neighbor router; None for §5.4.8 *)
  neighbor : Asn.t;
  tag : tag;
}

(** A router is a graph node, named by its id: [owners.(id)] is node
    [id]'s inferred owner and [merged_from.(id)] the node ids step 7
    collapsed into it. Both arrays have one slot per graph node. *)
type result = {
  owners : owner array;
  merged_from : int list array;
  links : border_link list;
  nextas_used : int;  (** how often the nextas fallback decided *)
}

(** [owner_of result id] is [result.owners.(id)]. *)
val owner_of : result -> int -> owner

(** [infer ?disabled cfg ip2as ~rels graph collection] runs the ordered
    heuristics; [disabled] suppresses chosen steps (ablation studies). *)
val infer :
  ?disabled:tag list ->
  Config.t ->
  Ip2as.t ->
  rels:Bgpdata.As_rel.t ->
  Rgraph.t ->
  Collect.t ->
  result

(** [encode_tag w tag] writes [tag] as one byte. *)
val encode_tag : Store.Codec.writer -> tag -> unit

val decode_tag : Store.Codec.reader -> tag

(** [encode w result] writes each node's owner and [merged_from] in id
    order, and the links, with graph nodes named by id. *)
val encode : Store.Codec.writer -> result -> unit

(** [decode g r] reads what {!encode} wrote for graph [g]. A router
    section whose count is not [g]'s node count, whose ids do not run
    0..n-1 in order, or a node id past the count elsewhere is
    rejected. *)
val decode : Rgraph.t -> Store.Codec.reader -> result
