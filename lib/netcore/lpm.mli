(** Flattened longest-prefix-match table over a fixed prefix set.

    A 16-bit-stride root array: prefixes of length <= 16 are expanded
    into the slots they cover (longest cover wins per slot); longer
    prefixes live in tiny per-slot buckets sorted longest-first. Lookup
    is one array index plus a short bucket scan — the fast-path
    replacement for a bit-per-node {!Ptrie} walk once the prefix set
    stops changing. The structure is immutable after {!build} and safe
    to share across domains. *)

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

(** [find_exact t p] is the value bound to exactly [p], if any. *)
val find_exact : 'a t -> Prefix.t -> 'a option

(** [remap_values f t] rewrites every bound value through [f], keeping
    the prefix set and all index structure intact. *)
val remap_values : ('a -> 'a) -> 'a t -> 'a t

(** [patch t ~remove ~add ~remap] is the incremental form of rebuild:
    structurally identical to [build] over [t]'s bindings with [remove]
    dropped, surviving values rewritten through [remap], and [add]
    appended (an added prefix overwrites an existing binding; among
    duplicate adds the later wins, mirroring {!build}). Only root slots
    and buckets covered by a removed or added prefix are recomputed;
    everything else is index-translated. [t] is unchanged. *)
val patch :
  'a t -> remove:Prefix.t list -> add:(Prefix.t * 'a) list -> remap:('a -> 'a) -> 'a t

(** Number of (deduplicated) prefixes built into the table. *)
val length : 'a t -> int

(** [fold f t acc] folds over bindings in [Prefix.compare] order. *)
val fold : (Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
