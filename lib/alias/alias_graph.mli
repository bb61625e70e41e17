(** Alias groups (§5.3 "Build router-level graph"). While probing runs,
    {!Uf} accumulates evidence and produces routers by transitive
    closure, honouring the paper's guard: two addresses are only merged
    when no measurement suggested the pair is not aliases — a negative
    result blocks the union even if positive evidence arrived first or
    arrives later. When collection ends, {!freeze} turns the groups into
    the run's address table, the only address index a run keeps. *)

open Netcore

(** The union-find used while probing, with per-group vetoes. *)
module Uf : sig
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
end

(** A frozen address table: addresses in ascending order, each with its
    alias-group id and whether a trace hop observed it. Group ids count
    groups in order of their least address. *)
type t

(** [freeze uf ~observed ~named] is the table of [uf]'s addresses, the
    [observed] ones (trace hops) and the [named] ones (mates), grouped
    as [uf] groups them. *)
val freeze : Uf.t -> observed:Ipv4.t list -> named:Ipv4.t list -> t

(** [group_count t] is the number of groups; ids run from 0. *)
val group_count : t -> int

(** [group_of t a] is [a]'s group id, or [-1] when [t] lacks [a]. *)
val group_of : t -> Ipv4.t -> int

(** [iter t f] calls [f a g observed] on every address [a] of [t] in
    ascending order, with its group id and observed bit. *)
val iter : t -> (Ipv4.t -> int -> bool -> unit) -> unit

(** [same_router t a b] is true when [a] and [b] are one address or one
    group of [t]. *)
val same_router : t -> Ipv4.t -> Ipv4.t -> bool

(** [groups t] is every group of [t] (routers, singletons included),
    each sorted, in ascending order. *)
val groups : t -> Ipv4.t list list

val encode : Store.Codec.writer -> t -> unit

(** [decode r] reads what {!encode} wrote. Addresses that do not ascend
    strictly, or group ids not numbered by least address, are rejected. *)
val decode : Store.Codec.reader -> t
