(** RIR delegation records in the extended delegation file format:
    {v registry|cc|type|start|value|date|status|opaque-id v}
    e.g. {v arin|US|ipv4|192.0.2.0|256|20160101|allocated|org-4f2b v}
    Only ipv4 records are kept. [value] is the number of addresses, which
    need not be a power of two. The opaque id groups blocks delegated to
    one organization (§5.2). *)

open Netcore

type record = {
  registry : string;
  cc : string;
  start : Ipv4.t;
  count : int;
  date : string;
  status : string;
  opaque_id : string;
}

type t

val empty : t
val add : t -> record -> t
val records : t -> record list

(** [find t addr] is the delegation record covering [addr], if any. *)
val find : t -> Ipv4.t -> record option

(** [opaque_id_of t addr] is the organization id covering [addr]. *)
val opaque_id_of : t -> Ipv4.t -> string option

val to_lines : t -> string list
val of_lines : string list -> (t, string) result
