(** The data-collection driver (§5.3): traceroutes toward every external
    address block with doubletree stop sets, then alias resolution over
    candidate pairs with Ally (repeated trials), Mercator, and
    Prefixscan. Produces the raw material the inference step consumes. *)

open Netcore
module Engine = Probesim.Engine
module Gen = Topogen.Gen

type t = {
  traces : Trace.t list;
  aliases : Aliasres.Alias_graph.t;  (* frozen when collection ends *)
  (* (prev, hop, mate): prefixscan confirmed [hop] is an inbound
     interface whose subnet mate [mate] is an alias of [prev]. *)
  mates : (Ipv4.t * Ipv4.t * Ipv4.t) list;
  (* echo / unreachable closing replies per target AS, for §5.4.8. *)
  other_icmp : (Asn.t * Ipv4.t) list;
  sched : Probesim.Scheduler.t;
  stopset_hits : int;
  alias_pairs_tested : int;
}

val run : Engine.t -> Config.t -> Ip2as.t -> vp:Gen.vp -> Targets.block list -> t

(** [freeze uf traces mates] is a collection's address table: [uf]'s
    groups over its hop (observed) and mate addresses. *)
val freeze :
  Aliasres.Alias_graph.Uf.t ->
  Trace.t list ->
  (Ipv4.t * Ipv4.t * Ipv4.t) list ->
  Aliasres.Alias_graph.t

(** [stop_entry ip2as t] is the address [t] adds to its target AS's
    doubletree stop set: its first external hop, if any. *)
val stop_entry : Ip2as.t -> Trace.t -> Ipv4.t option

(** [run_with prober cfg ip2as blocks] drives collection through an
    abstract prober — the local engine binding or the §5.8 offload
    channel ({!Probesim.Offload.remote}). [vp_name] labels the
    observability spans of this run, nothing else. *)
val run_with :
  ?vp_name:string -> Probesim.Prober.t -> Config.t -> Ip2as.t -> Targets.block list -> t

(** [encode w t] writes a collection: its traces as {!Trace.encode}'s
    hop table and columns, then the address table, the prefixscan
    mates, the other-ICMP replies, the probe counts and counters. *)
val encode : Store.Codec.writer -> t -> unit

(** [decode r] reads what {!encode} wrote. *)
val decode : Store.Codec.reader -> t
