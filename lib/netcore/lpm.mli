(** Flattened longest-prefix-match table over a fixed prefix set.

    A 16-bit-stride root array: prefixes of length <= 16 are expanded
    into the slots they cover (longest cover wins per slot); longer
    prefixes live in tiny per-slot buckets sorted longest-first. Lookup
    is one array index plus a short bucket scan — the fast-path
    replacement for a bit-per-node {!Ptrie} walk once the prefix set
    stops changing. The structure is immutable after {!build} and safe
    to share across domains. A changed prefix set is a new {!build}:
    binding indices are ranks in the sorted prefix array, so one added
    or removed prefix moves them all, and a patch that translated every
    root slot measured slower than building afresh (DESIGN.md §23). *)

type 'a t

(** [build bindings] freezes [bindings] into a lookup table. Among
    duplicate prefixes the later binding wins (mirroring [Ptrie.add]).
    Cost: O(n log n) plus the 65536-slot root fill. *)
val build : (Prefix.t * 'a) list -> 'a t

(** [lookup t addr] is the longest prefix in [t] containing [addr],
    with its value — semantically identical to [Ptrie.lpm addr] over
    the same bindings. *)
val lookup : 'a t -> Ipv4.t -> (Prefix.t * 'a) option

(** [lookup_idx t addr] is the binding index of the longest prefix
    containing [addr], or [-1] on a miss. The zero-allocation form of
    {!lookup}: the scan touches only flat int arrays, so hot paths can
    loop over it without generating any garbage, resolving hits with
    {!prefix_at}/{!value_at} only when needed. *)
val lookup_idx : 'a t -> Ipv4.t -> int

(** [prefix_at t i] / [value_at t i] resolve a binding index returned
    by {!lookup_idx}. Indices are stable for the lifetime of [t] (they
    index the sorted deduplicated binding array). *)
val prefix_at : 'a t -> int -> Prefix.t

val value_at : 'a t -> int -> 'a

(** Number of (deduplicated) prefixes built into the table. *)
val length : 'a t -> int

(** [fold f t acc] folds over bindings in [Prefix.compare] order. *)
val fold : (Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
