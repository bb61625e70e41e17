(** Table-1-style reporting (§5.7): BGP coverage of inferred neighbors
    and the per-relationship-class breakdown of which heuristic inferred
    each neighbor router. *)

open Netcore

type cls = Cust | Peer | Prov | Trace

type t = {
  observed_in_bgp : (cls * int) list;  (** neighbors per class in public BGP *)
  observed_in_bdrmap : (cls * int) list;  (** of those, seen by bdrmap *)
  coverage_pct : float;
  (* tag -> class -> share of neighbor routers (percent). *)
  heuristic_share : (Heuristics.tag * (cls * float) list) list;
  neighbor_routers : (cls * int) list;
}

(** [table1 ~rels ~vp_asns result] classifies each inferred neighbor
    against the public relationship data: neighbors absent from it form
    the "trace" column. *)
val table1 :
  rels:Bgpdata.As_rel.t -> vp_asns:Asn.Set.t -> Heuristics.result -> t

val print : ?title:string -> Format.formatter -> t -> unit
