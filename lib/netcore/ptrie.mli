(** Binary radix trie keyed by IPv4 prefixes, supporting longest-prefix
    match. Persistent (each update returns a new trie). *)

type 'a t

val empty : 'a t

(** [add p v t] binds [p] to [v], replacing any previous binding of [p]. *)
val add : Prefix.t -> 'a -> 'a t -> 'a t

(** [update p f t] applies [f] to the current binding of [p] (or [None]). *)
val update : Prefix.t -> ('a option -> 'a option) -> 'a t -> 'a t

(** [find_exact p t] is the value bound to exactly [p]. *)
val find_exact : Prefix.t -> 'a t -> 'a option

(** [lpm addr t] is the longest-prefix match for [addr]: the most specific
    prefix in [t] containing [addr], with its value. *)
val lpm : Ipv4.t -> 'a t -> (Prefix.t * 'a) option

(** [subtree p t] is all bindings at or below [p] (i.e. subsumed by [p]). *)
val subtree : Prefix.t -> 'a t -> (Prefix.t * 'a) list

val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val cardinal : 'a t -> int
val bindings : 'a t -> (Prefix.t * 'a) list
val of_list : (Prefix.t * 'a) list -> 'a t
