(** AS-to-organization (sibling) mapping in the style of CAIDA's
    as2org dataset (§5.2). Format, one line per AS:
    {v <asn>|<org-id> v}
    ASes sharing an org-id are siblings. *)

open Netcore

type t

val empty : t
val add : t -> Asn.t -> string -> t
val org_of : t -> Asn.t -> string option

val to_lines : t -> string list
val of_lines : string list -> (t, string) result
