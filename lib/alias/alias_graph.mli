(** Accumulates alias evidence and produces routers by transitive
    closure, honouring the paper's guard (§5.3 "Build router-level
    graph"): two addresses are only merged when no measurement suggested
    the pair is not aliases — a negative result blocks the union even if
    positive evidence arrived first or arrives later. *)

open Netcore

type t

val create : unit -> t

(** [add_alias t a b] records positive evidence. The union is applied
    unless a negative constraint exists between the two groups. *)
val add_alias : t -> Ipv4.t -> Ipv4.t -> unit

(** [add_not_alias t a b] records negative evidence; it retroactively
    never splits groups, so drivers must record negatives before the
    positives they should veto (bdrmap's repeated-Ally discipline). *)
val add_not_alias : t -> Ipv4.t -> Ipv4.t -> unit

(** [same_router t a b] is true when the addresses are currently merged. *)
val same_router : t -> Ipv4.t -> Ipv4.t -> bool

(** [vetoed t a b] is true when a negative constraint connects the two
    groups. *)
val vetoed : t -> Ipv4.t -> Ipv4.t -> bool

(** A snapshot of the current alias sets, bucketed once: each lookup
    is a union-find [find] plus one table probe. Evidence added after
    [index] is not reflected. *)
type index

val index : t -> index

(** [group idx a] is the sorted alias set containing [a] (a singleton
    when [a] was never mentioned). *)
val group : index -> Ipv4.t -> Ipv4.t list

(** [groups t] is the list of alias sets (routers), each sorted, only
    for addresses ever mentioned. *)
val groups : t -> Ipv4.t list list

(** [encode w t] writes the union-find's members and its parent, rank
    and conflict tables as bindings sorted by address. *)
val encode : Store.Codec.writer -> t -> unit

(** [decode r] reads what {!encode} wrote. *)
val decode : Store.Codec.reader -> t
