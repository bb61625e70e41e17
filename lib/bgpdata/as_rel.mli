(** AS relationship annotations, as produced by the inference of [25]
    (CAIDA serial-1 as-rel format):
    {v <provider>|<customer>|-1 v} for c2p,
    {v <as1>|<as2>|0 v} for p2p.
    Lines starting with '#' are comments. *)

open Netcore

type rel = Customer | Provider | Peer

type t

val empty : t

(** [add_c2p t ~provider ~customer] records a customer-provider edge. *)
val add_c2p : t -> provider:Asn.t -> customer:Asn.t -> t

(** [add_p2p t a b] records a peering edge. *)
val add_p2p : t -> Asn.t -> Asn.t -> t

(** [remove_edge t a b] drops whatever relationship exists between [a]
    and [b] (either direction, any kind). ASes left without
    relationships keep an empty entry, so {!asns} is unchanged. *)
val remove_edge : t -> Asn.t -> Asn.t -> t

(** [rel t ~of_:a ~with_:b] is the role [b] plays for [a]: [Some Provider]
    when [b] provides transit to [a]. *)
val rel : t -> of_:Asn.t -> with_:Asn.t -> rel option

val providers : t -> Asn.t -> Asn.Set.t
val customers : t -> Asn.t -> Asn.Set.t
val peers : t -> Asn.t -> Asn.Set.t

(** [neighbors t a] is every AS with any relationship to [a]. *)
val neighbors : t -> Asn.t -> Asn.Set.t

val is_provider_of : t -> provider:Asn.t -> customer:Asn.t -> bool
val is_peer : t -> Asn.t -> Asn.t -> bool
val known : t -> Asn.t -> Asn.t -> bool
val asns : t -> Asn.Set.t
val edge_count : t -> int

val to_lines : t -> string list
val of_lines : string list -> (t, string) result
