(** Alias groups (§5.3 "Build router-level graph"). While probing runs,
    {!Uf} accumulates evidence and produces routers by transitive
    closure, honouring the paper's guard: two addresses are only merged
    when no measurement suggested the pair is not aliases — a negative
    result blocks the union even if positive evidence arrived first or
    arrives later. When collection ends, {!freeze} turns the groups into
    the run's address table, the only address index a run keeps. *)

open Netcore

(** The run's address registry while probing: each address gets a dense
    id when it is first seen (a trace hop, a prefixscan mate, alias
    evidence), and a union-find with per-group vetoes runs over the
    ids. *)
module Uf : sig
  type t

  val create : unit -> t

  (** [intern t ~observed a] is [a]'s id, registering [a] on first
      sight; [observed] (a trace hop replied from [a]) sticks once
      set. *)
  val intern : t -> observed:bool -> Ipv4.t -> int

  (** [size t] is the number of registered addresses; ids run from 0. *)
  val size : t -> int

  (** [lookup t a] is [a]'s id, or -1 when [a] was never registered. It
      registers nothing. *)
  val lookup : t -> Ipv4.t -> int

  (** [addr t i] is the address of id [i]. *)
  val addr : t -> int -> Ipv4.t

  (** [same t i j] is true when ids [i] and [j] are currently merged.
      An id of -1 (an address never registered) is merged with
      nothing. *)
  val same : t -> int -> int -> bool

  (** [vetoed t i j] is true when a negative constraint connects the
      groups of ids [i] and [j]; never for an id of -1. *)
  val vetoed : t -> int -> int -> bool

  (** [union t i j] records positive evidence between two ids. The
      union is applied unless a negative constraint exists between the
      two groups. *)
  val union : t -> int -> int -> unit

  (** [separate t i j] records negative evidence between two ids; it
      retroactively never splits groups, so drivers must record
      negatives before the positives they should veto (bdrmap's
      repeated-Ally discipline). *)
  val separate : t -> int -> int -> unit
end

(** A frozen address table: addresses in ascending order, each with its
    alias-group id and whether a trace hop observed it. A table id is
    an address's position; group ids count groups in order of their
    least address. *)
type t

(** [freeze uf] is the table of [uf]'s addresses, grouped as [uf]
    groups them, and the table id of each of [uf]'s ids. *)
val freeze : Uf.t -> t * int array

(** Table ids run from 0 to [length t - 1]: [addr t i] is id [i]'s
    address, [group t i] its group id, and [observed t i] whether a
    trace hop observed it. *)
val length : t -> int

val addr : t -> int -> Ipv4.t
val group : t -> int -> int
val observed : t -> int -> bool

(** [group_count t] is the number of groups; ids run from 0. *)
val group_count : t -> int

(** [groups t] is every group of [t] (routers, singletons included),
    each sorted, in ascending order. *)
val groups : t -> Ipv4.t list list

val encode : Store.Codec.writer -> t -> unit

(** [decode r] reads what {!encode} wrote. Addresses that do not ascend
    strictly, or group ids not numbered by least address, are rejected. *)
val decode : Store.Codec.reader -> t
