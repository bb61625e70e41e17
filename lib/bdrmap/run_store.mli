(** Pipeline-level encoding on top of the generic {!Store}: persistent
    snapshots of completed per-VP runs, plus a generic memoizer for
    other deterministic per-VP artifacts (the experiments' forwarding
    sweeps).

    Keys are MD5 digests — the same [Digest] plumbing the manifest's
    config hash uses — over everything the cached value is a pure
    function of: the full topology parameters (seed, scale and all
    counts; the topology is a deterministic function of them), the
    probe rate, the full pipeline {!Config.t} and the VP identity.
    Pool size, jobs and observability flags deliberately never reach a
    key: a warm read must be byte-identical to the cold compute at any
    [-j].

    A run {!snapshot} is written with an explicit {!Store.Codec}
    encoding ({!encode}) and decoded in place from the entry's image;
    {!memo} takes its caller's codec the same way. The store's magic,
    version, embedded key and payload digest guard the bytes, and the
    decoder checks every count, index and set order behind them;
    {!snapshot_version} participates in every key, so a layout change
    here invalidates old entries instead of misreading them. Any
    malformed entry is logged via {!Obs.Log}, counted as a miss, and
    falls back to recomputation. *)

(** Bump when the snapshot encoding (or that of a section it reaches)
    changes; old entries then miss on key rather than decode wrongly. *)
val snapshot_version : int

type snapshot = {
  collection : Collect.t;
  graph : Rgraph.t;
  inference : Heuristics.result;
  probes : int;  (** engine probe counter at end of run *)
  cache : Probesim.Engine.cache_stats;
}

(** [encode w s] writes [s]: the collection ({!Collect.encode}), the
    graph ({!Rgraph.encode}), the inference ({!Heuristics.encode}),
    the probe count and the path-memo counters. *)
val encode : Store.Codec.writer -> snapshot -> unit

(** [decode r] reads what {!encode} wrote; the graph takes its nodes
    from the decoded collection's address table, and the inference
    shares the decoded graph's node records. *)
val decode : Store.Codec.reader -> snapshot

(** [?epoch] is the topology epoch's chained event-log digest
    ({!Topogen.Evolve.log_digest}); it participates in the key so each
    evolution epoch checkpoints apart. The default [""] is the
    unevolved world. *)
val key :
  ?epoch:string ->
  world:Topogen.Gen.world ->
  pps:float ->
  cfg:Config.t ->
  vp:Topogen.Gen.vp ->
  unit ->
  string

(** [load st ~world ~pps ~cfg ~vp] returns the stored snapshot, or
    [None] (counted as [store.misses]; non-absent misses are logged).
    Hits add [store.hits] / [store.bytes_read] and run under a
    ["store"] span. *)
val load :
  ?epoch:string ->
  Store.t ->
  world:Topogen.Gen.world ->
  pps:float ->
  cfg:Config.t ->
  vp:Topogen.Gen.vp ->
  snapshot option

(** [save st ~world ~pps ~cfg ~vp s] checkpoints [s] atomically
    (adds [store.writes] / [store.bytes_written]). *)
val save :
  ?epoch:string ->
  Store.t ->
  world:Topogen.Gen.world ->
  pps:float ->
  cfg:Config.t ->
  vp:Topogen.Gen.vp ->
  snapshot ->
  unit

(** [bgp_snapshot_key ~world ()] is the store key of [world]'s packed
    routing snapshot: world parameters, snapshot codec version and the
    topology epoch digest ([?epoch], default [""] = unevolved). *)
val bgp_snapshot_key :
  ?epoch:string -> world:Topogen.Gen.world -> unit -> string

(** [load_bgp_snapshot st ~world] returns the persisted packed routing
    snapshot for [world], or [None]. Snapshots are stored under a key
    covering the world parameters and the snapshot codec version, and
    round-trip through {!Routing.Bgp.Snapshot.to_bytes} — the packed
    arenas are raw words, so future worker {e processes} can load them
    without sharing the OCaml heap.
    Counted under [store.snapshot.hits] / [store.snapshot.misses] /
    [store.snapshot.writes] (apart from the per-VP checkpoint
    counters, which stay one-entry-per-VP). *)
val load_bgp_snapshot :
  ?epoch:string ->
  Store.t ->
  world:Topogen.Gen.world ->
  Routing.Bgp.snapshot option

(** [save_bgp_snapshot st ~world s] persists [s] atomically. *)
val save_bgp_snapshot :
  ?epoch:string ->
  Store.t ->
  world:Topogen.Gen.world ->
  Routing.Bgp.snapshot ->
  unit

(** [memo st ~key ?vp ~what ~encode ~decode f] returns the value
    cached under [key], or computes [f ()], checkpoints it with
    [encode], and returns it. [what] names the artifact in log lines;
    [key] must come from {!digest_key}, with a namespace version that
    changes whenever [encode]'s layout does. An entry [decode] rejects
    is a miss, recomputed and rewritten. *)
val memo :
  Store.t ->
  key:string ->
  ?vp:string ->
  what:string ->
  encode:(Store.Codec.writer -> 'a -> unit) ->
  decode:(Store.Codec.reader -> 'a) ->
  (unit -> 'a) ->
  'a

(** [digest_key v] is the hex MD5 of [v]'s marshaled bytes: include a
    namespace string and a version in [v], plus everything the cached
    value depends on. *)
val digest_key : 'a -> string
