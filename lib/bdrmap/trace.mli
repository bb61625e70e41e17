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
  hops : (int * int) list;  (** (ttl, source id) of TTL-expired replies *)
  closing : closing;
  stopped : bool;  (** halted early by the stop set *)
}

(** [pairs t] is consecutive responsive hop ids, with a flag marking
    whether unresponsive hops sat between them. *)
val pairs : t -> (int * int * bool) list

(** [encode w traces] writes [traces] as a table of the distinct
    (ttl, table id) hops, a table of the distinct hop-list suffixes
    over it, and per-trace columns that name each hop list by id. *)
val encode : Store.Codec.writer -> t list -> unit

(** [decode table r] reads what {!encode} wrote for traces over
    [table]; traces share one hop tuple per distinct hop and one cons
    cell per distinct suffix. A hop id that is not an observed address
    of [table] is rejected. *)
val decode : Aliasres.Alias_graph.t -> Store.Codec.reader -> t list
