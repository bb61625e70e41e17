(** Text serialization of collected measurements and inference results,
    so collection and inference can run as separate stages (the paper's
    scamper-driver/central-controller split, §5.8) and results can feed
    downstream tooling such as interdomain congestion monitoring (§2).

    Collection format, one record per line:
    {v trace|<dst>|<target asn>|<stopped:0/1>|<ttl>:<addr>,...|<closing> v}
    where closing is [-], [echo:<addr>] or [unreach:<addr>];
    {v alias|<a>|<b> v} — [b] is in [a]'s alias group;
    {v mate|<prev>|<hop>|<mate> v} — prefixscan confirmations;
    {v icmp|<asn>|<addr> v} — closing replies for §5.4.8.

    Link format:
    {v link|<near addrs>|<far addrs>|<neighbor asn>|<tag slug> v}
    with [-] for an unobserved (silent) far router. *)

val tag_slug : Heuristics.tag -> string
val tag_of_slug : string -> Heuristics.tag option

val collection_to_lines : Collect.t -> string list

(** [collection_of_lines lines] rebuilds a collection, its address
    table frozen from the parsed lines; scheduler counters and probe
    statistics are not carried by the format and reset to zero. *)
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
