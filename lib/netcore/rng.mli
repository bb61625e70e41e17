(** Deterministic splitmix64 PRNG. Every source of randomness in the
    simulator flows through one of these so that scenarios are reproducible
    bit-for-bit across runs and machines. *)

type t

val create : int -> t

(** [int t n] is uniform in [0, n). Raises on [n <= 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [bool t ~p] is true with probability [p]. *)
val bool : t -> p:float -> bool

(** [pick t l] is a uniform element of [l]. Raises on empty list. *)
val pick : t -> 'a list -> 'a

(** [pick_array t a] is a uniform element of [a]. *)
val pick_array : t -> 'a array -> 'a

(** [shuffle t l] is a uniform permutation of [l]. *)
val shuffle : t -> 'a list -> 'a list

(** [sample t n l] is [n] distinct elements of [l] (all of [l] when
    [n >= length l]), in shuffled order. *)
val sample : t -> int -> 'a list -> 'a list

(** [weighted t l] picks from [(weight, value)] pairs proportionally to
    weight. Raises on empty list or non-positive total weight. *)
val weighted : t -> (float * 'a) list -> 'a
