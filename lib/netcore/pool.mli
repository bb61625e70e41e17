(** A fixed-size pool of worker domains for embarrassingly parallel
    fan-out (per-vantage-point inference, per-VP forwarding sweeps).

    Domains are spawned once at {!create} and reused across batches, so
    the (multi-millisecond) domain spawn cost is not paid per work item.
    Results are always collected in submission order: running the same
    batch on pools of different sizes — or with no pool at all — yields
    the same list, which is what keeps multi-VP experiment output
    byte-identical between [-j 1] and [-j N].

    Work items must not share mutable state unless that state is
    properly synchronized; the intended discipline is that each item (or
    each worker, via {!map_init}) owns its mutable working set and only
    reads shared immutable structures. *)

type t

(** [create ?domains ()] spawns a pool of [domains] workers (default
    {!Domain.recommended_domain_count}; clamped to at least 1). *)
val create : ?domains:int -> unit -> t

(** Number of worker domains. *)
val size : t -> int

(** [map pool f items] applies [f] to every item on the pool's workers
    and returns the results in the order of [items]. If any application
    raises, the first exception in submission order is re-raised after
    the whole batch has drained (the pool stays usable). *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** [map_init pool ~init f items] is {!map} with worker-local state:
    each worker evaluates [init ()] once per batch and threads the
    result through every item it processes. Use this to give each
    domain its own mutable scratch structures (e.g. a forwarding-table
    memo) that are reused across the items that land on that worker. *)
val map_init : t -> init:(unit -> 's) -> ('s -> 'a -> 'b) -> 'a list -> 'b list

(** Shut the workers down and join them. Idempotent; using the pool
    afterwards raises [Invalid_argument]. *)
val shutdown : t -> unit

(** [with_pool ?domains f] runs [f] over a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)
val with_pool : ?domains:int -> (t -> 'a) -> 'a
