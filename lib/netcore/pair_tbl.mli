(** Hash tables keyed by one int that packs two small ints, such as two
    ids, or an id and an AS number. The hash spreads both halves over
    the bucket index. *)

include Hashtbl.S with type key = int
