(** AS-level BGP route propagation under Gao-Rexford policies:
    an AS exports customer routes (and its own prefixes) to everyone, and
    peer/provider routes only to customers. Route selection prefers
    customer over peer over provider routes, then shortest AS path, then
    lowest next-hop ASN.

    Per-link selective announcement (the Akamai-style policy of §6) is
    honoured at the edge between the origin and its direct neighbors.

    One propagation kernel serves every evaluation mode. It runs over
    interned ASN slots (the sorted table a snapshot keeps as its ASN
    axis), with provider, customer and peer adjacency held as flat
    offset/neighbour int arrays in slot order and the per-stage
    distances in int arrays reused from prefix to prefix. Each AS's
    best route and its next-hop slots are read straight off those
    arrays, ascending, with no set and no sort.

    {!freeze} and the dirty rows of {!refreeze} write that output as
    packed words into flat int arenas ([Bigarray]s the GC never
    traces): a prefix's routes depend only on its origin set, so there
    is one word row per distinct origin set (one word per ASN), a map
    from prefix slot to row, and a shared arena of interned next-hop
    segments. The result, a {!snapshot}, is the only
    representation routing queries answer from. It is pure data — safe
    to share by reference across [Netcore.Pool] domains with zero
    per-worker rebuild, and serializable to raw bytes
    ({!Snapshot.to_bytes}) for other processes. *)

open Netcore
module Net = Topogen.Net

type route_class = Cust | Peer | Prov

type route = {
  cls : route_class;
  dist : int;  (** AS-path hops to the origin *)
  nexthops : Asn.Set.t;  (** neighbor ASes offering the best (cls, dist) *)
  parent : Asn.t option;  (** canonical next hop; [None] at the origin *)
}

(** The propagation input of one world: its topology, relationships,
    origins and selective announcements. Only {!freeze} and
    {!refreeze} accept it; queries need a snapshot. *)
type input

(** Immutable routing snapshot: the sorted prefix axis with each
    prefix's origin set, route tables in dense (row x interned-ASN
    slot) arrays with one row per distinct origin set, and a flattened
    LPM over the prefix axis. *)
type snapshot

(** A routing query handle is the snapshot itself. Workers take one
    through {!of_snapshot}, which counts the attach. *)
type t = snapshot

(** [create net rels ~originated ~selective] prepares the propagation
    input. [rels] must be the ground-truth relationship graph (real
    routing does not run on inferred data). *)
val create :
  Net.t ->
  Bgpdata.As_rel.t ->
  originated:(Prefix.t * Asn.Set.t) list ->
  selective:int list Prefix.Map.t Asn.Map.t ->
  input

(** [freeze t] runs the kernel once per distinct origin set and writes
    each route straight into the packed arenas: a route word per
    (row, ASN slot), and the next-hop slots interned as a shared arena
    segment (a one-slot segment without allocating). An origin set is
    keyed by its sorted ASN slots (ASNs outside the graph ignored);
    each key gets one row, numbered in order of its first prefix slot,
    so the layout is a function of the input alone. Expanded through
    the prefix-to-row map, the words and arena are byte-identical to
    propagating every prefix. Counted under the
    [routing.snapshot.builds] metric by default; [?counter] redirects
    the count (validation and bench scratch freezes use
    ["routing.snapshot.scratch_builds"] so build accounting gates stay
    meaningful). *)
val freeze : ?counter:string -> input -> snapshot

(** [of_snapshot s] attaches a query handle to [s]: no copy and no
    private state, so any number of domains can attach to one shared
    snapshot. Counted under [routing.snapshot.attaches]. *)
val of_snapshot : snapshot -> t

(** [prefixes t] is every originated prefix, sorted. *)
val prefixes : t -> Prefix.t list

(** [origins t p] is the origin set of [p]. *)
val origins : t -> Prefix.t -> Asn.Set.t

(** [route t asn p] is [asn]'s best route toward [p]; [None] when
    unreachable or [asn] originates [p] itself. *)
val route : t -> Asn.t -> Prefix.t -> route option

(** [is_origin t asn p] is true when [asn] originates [p]. *)
val is_origin : t -> Asn.t -> Prefix.t -> bool

(** [lookup t asn addr] resolves [addr] through longest-prefix match and
    returns the matched prefix with the best route. *)
val lookup : t -> Asn.t -> Ipv4.t -> (Prefix.t * route option) option

(** [as_path t asn p] is the AS path [asn] would report toward [p]
    (leftmost = [asn], rightmost = origin), or [None] if unreachable.
    It walks the packed words: each hop reads one route word and the
    head of its next-hop segment. *)
val as_path : t -> Asn.t -> Prefix.t -> Asn.t list option

(** [allowed_links t ~origin ~p] is the per-link pin set for [p] at its
    origin: [None] means no restriction; [Some lids] means that among a
    neighbor's links that intersect [lids], only those carry [p] (links
    to neighbors outside the pin set are unrestricted). *)
val allowed_links : t -> origin:Asn.t -> p:Prefix.t -> int list option

(** [collector_view t collectors] builds the public RIB: one route line
    per (collector AS, prefix) with the collector's AS path. *)
val collector_view : t -> Asn.t list -> Bgpdata.Rib.t

(** {1 Incremental re-freeze}

    A batch of topology changes expressed in the vocabulary the delta
    path needs; produced by [Topogen.Evolve.advance]. The soundness
    contract is documented on {!refreeze}. New, withdrawn and
    re-originated prefixes need no entry: {!refreeze} reads them off
    the originated lists. *)
type churn = {
  ch_removed_edges : (Asn.t * Asn.t) list;
      (** AS pairs whose relationship was dropped (depeering) *)
  ch_new_stubs : (Asn.t * Asn.Set.t) list;
      (** new stub ASes with their provider sets; ASNs must sort above
          every existing ASN and providers must already exist *)
  ch_links_changed : (Asn.t * Asn.t) list;
      (** AS pairs whose physical links changed with the relationship
          intact — BGP-invisible, forwarding-plan dirt only *)
}

(** The empty batch: [refreeze t ~old no_churn] patches nothing. *)
val no_churn : churn

(** [churn_of_events evs] folds a [Topogen.Evolve] event batch into the
    delta vocabulary, relying on the evolution invariants (new
    customers are pure stubs, link add/remove keep relationships
    intact, aggregate/deaggregate only replace prefixes). *)
val churn_of_events : Topogen.Evolve.timed list -> churn

type refreeze_stats = {
  rf_total : int;  (** prefixes in the new snapshot *)
  rf_dirty : int;
      (** dirty prefixes: those that do not keep their own old row
          unchanged (new, moved to another row, or in a propagated row) *)
  rf_dirty_prefixes : Prefix.t list;
      (** the dirty prefixes, sorted — the forwarding plan re-scores
          only columns without a clean prefix *)
  rf_fallback : bool;
      (** the append-only ASN contract was violated and the patch
          degraded to a full recompute *)
}

(** [refreeze t ~old churn] is the incremental form of {!freeze}: [t]
    is the propagation input of the post-churn world, [old] the
    pre-churn snapshot. Rows are laid out as {!freeze} lays them out,
    and each row whose origin set had a row in [old] is clean unless a
    removed edge appears in one of its next-hop segments: it is
    blitted, with its new-stub columns derived from the providers'
    packed words. So a new or re-originated prefix whose origin set
    already has a clean row costs one index write. Dirty rows (new
    origin sets, and those a removed edge touched) propagate through
    the kernel, whose adjacency is built on the first such row. The
    LPM is shared (prefix set unchanged) or rebuilt with [Lpm.build].
    When the originated list equals [old]'s, the prefix axis and
    origin sets are taken from [old] rather than rebuilt. With the same
    rows and none dirty (single-link churn) the words and arena are
    shared with [old]. The result is semantically identical to
    [freeze] of [t] from scratch ({!Snapshot.equal}), with the same row
    layout; its arena layout may differ.
    Counted under [routing.snapshot.patches], with the dirty count
    under [routing.snapshot.dirty_prefixes]. *)
val refreeze : input -> old:snapshot -> churn -> snapshot * refreeze_stats

module Snapshot : sig
  type t = snapshot

  val prefix_count : t -> int
  val asn_count : t -> int

  (** [row_count s] is the number of word rows: one per distinct origin
      set (keyed by its ASN slots). *)
  val row_count : t -> int

  (** [row_of_pslot s pslot] is the word row of prefix slot [pslot].
      Rows are numbered in order of each set's first prefix slot, so
      two prefixes share a row exactly when their origin sets agree on
      the slot table. *)
  val row_of_pslot : t -> int -> int

  (** [pins s] holds, for each prefix slot, the origins that announce
      the prefix selectively with their pinned links
      ({!allowed_links}), by ascending ASN; [[]] for most slots. A
      slot's row and pins are all the forwarding plan's egress choice
      reads of the prefix. *)
  val pins : t -> (Asn.t * int list) list array

  (** {2 Slot layer}

      Zero-allocation access for hot sweeps: intern an ASN/prefix to
      its slot once, then read packed route {e words} — plain ints
      carrying class, dist, next-hop count, and the arena offset of the
      next-hop segment. No heap traffic on any of these paths. *)

  (** [asn_slot s asn] / [prefix_slot s p] intern to a slot; [-1] when
      absent (then every route word is 0). *)
  val asn_slot : t -> Asn.t -> int

  val prefix_slot : t -> Prefix.t -> int
  val asn_of_slot : t -> int -> Asn.t
  val prefix_of_slot : t -> int -> Prefix.t

  (** [word s ~pslot ~aslot] is the packed route word, or [0] for "no
      route" (also when either slot is [-1]). *)
  val word : t -> pslot:int -> aslot:int -> int

  val word_dist : int -> int
  val word_nexthop_count : int -> int

  (** [nexthop_slot s w k] is the [k]-th next-hop ASN slot of a
      non-zero word [w] ([0 <= k < word_nexthop_count w]), ascending;
      [k = 0] is the canonical parent. *)
  val nexthop_slot : t -> int -> int -> int

  (** [route_at s ~pslot ~aslot] decodes the word into a boxed
      {!route} (allocates; hot loops should stay on words). *)
  val route_at : t -> pslot:int -> aslot:int -> route option

  (** [lookup_pslot s addr] is the LPM-matched prefix slot, or [-1].
      Allocation-free. *)
  val lookup_pslot : t -> Ipv4.t -> int

  (** Total length of the interned next-hop arena (diagnostics). *)
  val arena_length : t -> int

  (** [equal a b] is semantic equality between two snapshots of the
      same world: identical interning axes, per-prefix origin sets and
      row layout, every row's packed word
      decode-equal (next-hop segments compared element-wise, so arenas
      in different interning order still compare equal), and LPM
      agreement probed at every prefix boundary. The oracle the churn
      tests run after every event batch. [Error] carries the first
      mismatch. *)
  val equal : t -> t -> (unit, string) result

  (** {2 Serialization}

      A snapshot round-trips through a {!Store.Envelope} image with
      magic ["BDSN"] and version {!codec_version}. Every field is a
      big-endian 8-byte word: the packed arenas as raw words, then the
      ASN slot table, the prefix-slot-to-row map, the originated list
      and the selective announcements. The prefix axis, origin sets and LPM are derived
      from the originated list on load. *)

  type decode_error = Store.Envelope.error =
    | Absent | Truncated | Bad_magic | Bad_version of int | Stale | Corrupt

  val error_label : decode_error -> string

  (** Current serialization format version (bump on layout change). *)
  val codec_version : int

  val to_bytes : t -> bytes

  (** [of_bytes b] checks the envelope, then decodes the payload
      field by field, bounding every count by the bytes left before
      anything is sized from it; any flipped byte, inconsistent count
      or malformed field is [Corrupt], any short read [Truncated].
      Never raises. *)
  val of_bytes : bytes -> (t, decode_error) result
end
