(** Domain-safe metrics registry: counters and histograms with
    fixed log-scale buckets.

    Each domain writes to a private shard (allocated lazily through
    domain-local storage), so {!Netcore.Pool} workers never contend on —
    or race over — a shared table. {!collect} merges all shards with
    commutative, associative operations only (counters and histogram
    buckets sum), so the merged totals are
    independent of how work items were distributed across domains:
    [-j 1] and [-j N] runs of a deterministic workload report identical
    totals.

    The whole registry is gated on one global flag: while {!enabled} is
    false every recording call returns after a single branch, allocates
    nothing, and creates no shard. Collection and {!reset} must run while
    writer domains are quiescent (between pool batches); recording calls
    themselves are always safe from any domain. *)

(** {1 Gating} *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** {1 Recording} *)

(** [add name n] adds [n] to the counter [name] in this domain's shard. *)
val add : string -> int -> unit

(** [incr name] is [add name 1]. *)
val incr : string -> unit

(** [observe name v] records [v] into histogram [name]. Buckets are
    fixed at four per decade from 1e-9 to 1e6 (plus underflow and
    overflow), so every shard buckets identically and merging is a
    per-bucket sum. *)
val observe : string -> float -> unit

(** {1 Collection} *)

type histogram = {
  h_sum : float;
  h_count : int;
  h_buckets : (float * int) list;
      (** non-empty buckets only, as (inclusive lower bound, count) *)
}

type value = Counter of int | Histogram of histogram

(** [collect ()] merges every shard and returns the metrics sorted by
    name. Raises [Invalid_argument] if one name was recorded with two
    different kinds. *)
val collect : unit -> (string * value) list

(** [find_counter metrics name] is the counter's total, or 0. *)
val find_counter : (string * value) list -> string -> int

(** [reset ()] clears every shard (the enabled flag is untouched). *)
val reset : unit -> unit

(** [bucket_lower i] / [bucket_of v]: the fixed bucket layout, exposed
    for tests. *)
val bucket_of : float -> int

val bucket_lower : int -> float
