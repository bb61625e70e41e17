(** The one bounded byte codec behind bdrmap's explicit on-disk formats
    (run-store payloads, served border maps, the routing snapshot's
    trailer).

    A {!writer} appends to a growable image; a {!reader} walks a byte
    range of a string in place. Words are big-endian; a varint is the
    minimal unsigned LEB128 of a non-negative int. Every reader
    primitive checks the bytes left before it reads, and every count is
    bounded by the bytes left divided by the smallest encoding of one
    item, so no count read from the input sizes an allocation the input
    could not fill. A malformed input raises one internal exception that
    {!decode} turns into [Error Corrupt]; nothing else escapes. *)

(** {1 Writing} *)

type writer

(** [writer ?at cap] is an empty writer with room for [cap] bytes after
    an [at]-byte prefix left for the caller (an envelope header). *)
val writer : ?at:int -> int -> writer

val put_u8 : writer -> int -> unit

(** [put_u32 w v] writes [v] in four bytes; [Invalid_argument] outside
    [0, 2^32). *)
val put_u32 : writer -> int -> unit

(** [put_word w v] writes [v] as a big-endian 8-byte word. *)
val put_word : writer -> int -> unit

(** [put_float w f] writes [f]'s IEEE bits as an 8-byte word. *)
val put_float : writer -> float -> unit

(** [put_varint w v]; [Invalid_argument] on a negative [v]. *)
val put_varint : writer -> int -> unit

val put_bool : writer -> bool -> unit

(** [put_raw w s] writes [s]'s bytes with no length. *)
val put_raw : writer -> string -> unit

(** [put_string w s] is a varint length, then the bytes. *)
val put_string : writer -> string -> unit

(** [put_sized w put] runs [put], prefixed by an 8-byte word holding
    the number of bytes it wrote: the layout {!sub} reads back. *)
val put_sized : writer -> (writer -> unit) -> unit

(** [put_list w put l] is a varint count, then each item in order. *)
val put_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit

(** [contents w] is the image buffer and the bytes written to it,
    prefix included. The buffer is shared, not copied: it may be longer
    than the length, and further writes may replace it. *)
val contents : writer -> bytes * int

(** {1 Reading} *)

type reader

(** [left r] is the number of unread bytes. *)
val left : reader -> int

val u8 : reader -> int
val u32 : reader -> int
val word : reader -> int
val float : reader -> float
val varint : reader -> int

(** [bool r] reads a byte that must be 0 or 1. *)
val bool : reader -> bool

(** [string r] reads what {!put_string} wrote, copied. *)
val string : reader -> string

(** [array n ~fill f] is [Array.init n f] seeded with [fill]. An array
    of over 256 words lives in the major heap from the start, and
    [Array.init] seeds it with [f 0]: a young block there forces a
    minor collection per array. Decoders pass an immediate or
    long-lived [fill] instead. *)
val array : int -> fill:'a -> (int -> 'a) -> 'a array

(** [sub r n] is a reader over the next [n] bytes, which [r] skips:
    a column read in step with others. *)
val sub : reader -> int -> reader

(** [finish r] rejects the input unless [r] has no bytes left. *)
val finish : reader -> unit

(** [bounded r c ~min_bytes] is [c] if [0 <= c] and [c] items of at
    least [min_bytes] bytes each fit in the bytes left. *)
val bounded : reader -> int -> min_bytes:int -> int

(** [count r ~min_bytes] reads a varint count and {!bounded}s it. *)
val count : reader -> min_bytes:int -> int

(** [list r ~min_bytes get] reads a {!count}, then that many items in
    order. *)
val list : reader -> min_bytes:int -> (reader -> 'a) -> 'a list

(** [strictly_ascending cmp l] holds when each item of [l] is below
    the next under [cmp]. *)
val strictly_ascending : ('a -> 'a -> int) -> 'a list -> bool

(** [ascending r ~min_bytes get cmp] is {!list}, checked strictly
    ascending under [cmp]: the encoding of a set. *)
val ascending :
  reader -> min_bytes:int -> (reader -> 'a) -> ('a -> 'a -> int) -> 'a list

(** The encoding of a set of ints (addresses, ASNs, node ids): a varint
    count, then the elements in strictly ascending order, each written
    and read by the caller's function. Decoding builds the set in
    linear time and words, with no sort. *)
module Int_set
    (S : Set.S)
    (E : sig
      val of_int : int -> S.elt
      val to_int : S.elt -> int
    end) : sig
  val put : writer -> (writer -> int -> unit) -> S.t -> unit

  (** [get r ~min_bytes get_elt] reads a set whose elements take at
      least [min_bytes] each; elements that do not ascend strictly are
      rejected. *)
  val get : reader -> min_bytes:int -> (reader -> int) -> S.t
end

(** [fail ()] rejects the input. *)
val fail : unit -> 'a

(** [check ok] rejects the input unless [ok]. *)
val check : bool -> unit

(** [decode f s ~pos ~len] runs [f] on the [len] bytes of [s] at [pos]
    and requires it to consume all of them. A rejected or
    partly-consumed input is [Error Corrupt]. [Invalid_argument] if the
    range is not within [s]. *)
val decode : (reader -> 'a) -> string -> pos:int -> len:int -> ('a, Envelope.error) result
