(** Text serialization of collected measurements and inference results,
    so collection and inference can run as separate stages (the paper's
    scamper-driver/central-controller split, §5.8) and results can feed
    downstream tooling such as interdomain congestion monitoring (§2).

    Collection format, one record per line:
    {v trace|<dst>|<target asn>|<stopped:0/1>|<ttl>:<addr>,...|<closing> v}
    where closing is [-], [echo:<addr>] or [unreach:<addr>] (the
    closing replies §5.4.8 reads), and hop TTLs lie in 1..255 and
    ascend strictly along the trace;
    {v alias|<a>|<b> v} — [b] is in [a]'s alias group;
    {v mate|<prev>|<hop>|<mate> v} — prefixscan confirmations.
    Addresses are written out: the text names no address-table id.
    An [icmp] line, which older writers emitted for each closing
    reply, is rejected, as is a TTL outside that range or order.

    Link format:
    {v link|<near addrs>|<far addrs>|<neighbor asn>|<tag slug> v}
    with [-] for an unobserved (silent) far router. *)

val tag_slug : Heuristics.tag -> string
val tag_of_slug : string -> Heuristics.tag option

val collection_to_lines : Collect.t -> string list

(** [collection_of_lines lines] rebuilds a collection, its address
    table frozen from the parsed lines and its stop-set hits and
    closing replies derived from the traces; scheduler counters and
    probe statistics are not carried by the format and reset to
    zero. *)
val collection_of_lines : string list -> (Collect.t, string) result

type link_record = {
  near_addrs : Netcore.Ipv4.t list;
  far_addrs : Netcore.Ipv4.t list;
  neighbor : Netcore.Asn.t;
  tag : Heuristics.tag;
}

(** [link_records g r] is one record per inferred border link, with
    each side's router addresses read off [g] ([[]] for an unobserved
    far router). *)
val link_records : Rgraph.t -> Heuristics.result -> link_record list

(** [links_to_lines g r] renders {!link_records} in the link format. *)
val links_to_lines : Rgraph.t -> Heuristics.result -> string list

(** [links_of_lines lines] parses the link format back; it inverts
    {!links_to_lines}. *)
val links_of_lines : string list -> (link_record list, string) result
