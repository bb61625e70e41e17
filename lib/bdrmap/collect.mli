(** The data-collection driver (§5.3): traceroutes toward every external
    address block with doubletree stop sets, then alias resolution over
    candidate pairs with Ally (repeated trials), Mercator, and
    Prefixscan. Produces the raw material the inference step consumes. *)

open Netcore
module Engine = Probesim.Engine
module Gen = Topogen.Gen

(** A finished collection. Its address table names every address the
    run saw; trace hops and mates name table ids. *)
type t = {
  traces : Trace.t list;
  aliases : Aliasres.Alias_graph.t;  (* frozen when collection ends *)
  (* (prev, hop, mate): prefixscan confirmed [hop] is an inbound
     interface whose subnet mate [mate] is an alias of [prev]. *)
  mates : (int * int * int) list;
  (* echo / unreachable closing replies per target AS, for §5.4.8;
     derived from the traces' closings. *)
  other_icmp : (Asn.t * Ipv4.t) list;
  sched : Probesim.Scheduler.t;
  stopset_hits : int;  (* traces the stop set halted, derived *)
  alias_pairs_tested : int;
}

val run : Engine.t -> Config.t -> Ip2as.t -> vp:Gen.vp -> Targets.block list -> t

(** [finish uf traces mates ~sched ~alias_pairs_tested] ends a
    collection whose trace hops and mates name [uf]'s ids: it freezes
    [uf] into the address table, renames those ids to table ids (the
    hop arrays in place), and derives [other_icmp] and [stopset_hits]
    from the traces. *)
val finish :
  Aliasres.Alias_graph.Uf.t ->
  Trace.t list ->
  (int * int * int) list ->
  sched:Probesim.Scheduler.t ->
  alias_pairs_tested:int ->
  t

(** [stop_entry ip2as addr t] is the address [t] adds to its target
    AS's doubletree stop set: its first external hop, if any, with hop
    ids named by [addr]. *)
val stop_entry : Ip2as.t -> (int -> Ipv4.t) -> Trace.t -> Ipv4.t option

(** [candidate_pairs cfg uf traces] is the alias pairs collection tests,
    in test order: registry ids that share a predecessor or a successor
    in [traces] (hops naming [uf]'s ids), each pair once, lower address
    first, at most [cfg.max_alias_candidates] of them. *)
val candidate_pairs :
  Config.t -> Aliasres.Alias_graph.Uf.t -> Trace.t list -> (int * int) list

(** [run_with prober cfg ip2as blocks] drives collection through an
    abstract prober — the local engine binding or the §5.8 offload
    channel ({!Probesim.Offload.remote}). [vp_name] labels the
    observability spans of this run, nothing else. *)
val run_with :
  ?vp_name:string -> Probesim.Prober.t -> Config.t -> Ip2as.t -> Targets.block list -> t

(** [encode w t] writes a collection: the address table, its traces
    as {!Trace.encode}'s hop table and columns, the prefixscan mates,
    the probe counts and the alias-pair counter. *)
val encode : Store.Codec.writer -> t -> unit

(** [decode r] reads what {!encode} wrote; an id past the table is
    rejected. *)
val decode : Store.Codec.reader -> t
