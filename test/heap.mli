(** Array-backed binary min-heap over an explicit comparison.

    The priority queue of the reference models' Dijkstra loops
    ([Bgp_ref], [Fwd_ref]): [push]/[pop_opt] are O(log n) with no
    allocation beyond occasional array doubling, and duplicate
    elements are allowed — a caller that improves a key simply
    pushes the element again and skips the stale entry when it surfaces
    (lazy deletion), which replaces decrease-key. Elements with equal
    [cmp] order surface in unspecified order, so callers needing a total
    pop order must make [cmp] total (e.g. compare the payload too). *)

type 'a t

(** [create cmp] is an empty heap ordered by [cmp] (minimum first). *)
val create : ('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [clear t] empties [t] in O(1). The backing array keeps its capacity
    (and references to dropped elements, until they are overwritten). *)
val clear : 'a t -> unit

val push : 'a t -> 'a -> unit

(** [pop_opt t] removes and returns a minimal element. *)
val pop_opt : 'a t -> 'a option

(** [peek_opt t] is a minimal element, without removing it. *)
val peek_opt : 'a t -> 'a option

val of_list : ('a -> 'a -> int) -> 'a list -> 'a t

(** [to_sorted_list t] drains [t] in nondecreasing order. *)
val to_sorted_list : 'a t -> 'a list
