(** The in-memory query index the server answers from: an immutable
    {!Bdrmap.Mapfile.t} (all-VP merged border map + origin view)
    compiled into flat lookup structures over the packed routing
    snapshot it was made from.

    The owner path is allocation-free after construction: border
    addresses live as /32s in a {!Netcore.Lpm} table queried through
    [lookup_idx]/[value_at] (immediate ints only), and the non-border
    fallback resolves through the snapshot's [lookup_pslot] slot layer
    into a plain [int array] of origins — the same two zero-alloc slot
    layers the pipeline's hot sweeps use. Crossings and provenance
    answers are pre-rendered strings, so serving them is a table lookup
    plus a copy into the response frame. *)

open Netcore

type t

(** [build ~snapshot mapfile] compiles the artifact. Non-border owner
    lookups go through [snapshot]'s slot layer into [mapfile.origins],
    indexed by prefix slot; an origin whose prefix the snapshot does
    not hold is never answered. Raises [Invalid_argument] if
    [mapfile.host_asns] is empty. *)
val build : snapshot:Routing.Bgp.snapshot -> Bdrmap.Mapfile.t -> t

(** Representative hosting AS (minimum of [host_asns]) — the operator
    reported for near-side border addresses. *)
val host_asn : t -> Asn.t

(** Number of distinct /32 border addresses indexed. *)
val border_count : t -> int

(** [owner t a] is the operator ASN of the border router owning [a]
    (near side: the hosting AS; far side: the neighbor), falling back
    to the covering prefix's origin AS for non-border addresses; [0]
    when nothing covers [a]. Allocation-free. *)
val owner : t -> Ipv4.t -> int

(** [crossings t a b] is the pre-rendered interdomain link lines
    between ASes [a] and [b] — non-empty only when one of the two is a
    hosting AS (the map is the hosting network's border, §6). Lines use
    the {!Bdrmap.Output} link format extended with the merge columns:
    [link|<near>|<far>|<neighbor>|<tags>|<seen_by>]. *)
val crossings : t -> Asn.t -> Asn.t -> string list

(** [provenance t a] is the pre-rendered provenance line for border
    address [a] — which side it sits on, its operator, the heuristic
    tags that fired (PR-3 slugs) and the VPs that saw it — or, for a
    routed non-border address, an [origin] line naming the covering
    prefix's origin. [None] when [a] is unknown. *)
val provenance : t -> Ipv4.t -> string option

(** Deterministic, deduplicated sample of addresses the map can answer
    (border addresses first, then one per origin prefix) — the
    load-generator's query mix. *)
val sample_addrs : t -> Ipv4.t array
