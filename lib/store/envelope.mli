(** The one on-disk envelope: every artifact bdrmap persists (run-store
    entries, routing snapshots, served border maps) is a payload behind
    this fixed 32-byte header.

    {v
      offset  size  field
      0       4     magic (4 ASCII bytes naming the format)
      4       4     format version (big-endian u32)
      8       16    MD5 digest of the payload
      24      8     payload length (big-endian u64)
      32      n     payload
    v}

    The formats that use it:

    {v
      magic   version                             payload
      BDRS    Store.format_version                32-char hex key, then the entry bytes
      BDSN    Routing.Bgp.Snapshot.codec_version  packed routing arenas + metadata
      BDMF    Bdrmap.Mapfile.codec_version        border map ({!Codec})
    v}

    {!unseal} validates magic, then version, then the exact length,
    then the digest, before a caller looks at a payload byte; every
    malformed image is a typed {!error}, never an exception. Files are
    published with {!publish}: a uniquely named temp file renamed into
    place, so a reader never observes a torn file. *)

(** Why an image did not yield a payload. {!unseal} itself never
    returns [Absent] or [Stale]: [Absent] is a missing file
    ({!read_file}) and [Stale] a payload that names another key than
    the one asked for (the run store). *)
type error =
  | Absent  (** no readable file at the path *)
  | Truncated
      (** shorter than the header, or its length disagrees with the
          declared payload length (trailing bytes included) *)
  | Bad_magic  (** not this format *)
  | Bad_version of int  (** written by an incompatible format version *)
  | Stale  (** a valid image for another key *)
  | Corrupt  (** digest mismatch, or a payload its decoder rejects *)

val error_label : error -> string

type format = { magic : string; version : int }

(** Length of the header: a payload starts at this offset. *)
val header_len : int

(** [create n] is an image with room for an [n]-byte payload at
    {!header_len}; fill the payload, then {!seal} it. *)
val create : int -> bytes

(** [seal ?len fmt image] writes the header over [image]'s first
    {!header_len} bytes, taking the bytes after them up to [len] (the
    image length, default all of [image]) as the payload. *)
val seal : ?len:int -> format -> bytes -> unit

(** [unseal fmt image] checks the header and returns the payload's
    bounds [(pos, len)] within [image], so a decoder can read it in
    place. *)
val unseal : format -> string -> (int * int, error) result

(** [read_file path] is the file's bytes, or [Error Absent]. *)
val read_file : string -> (string, error) result

(** [publish path write] runs [write] on a fresh temp file beside
    [path] (named [path.tmp-<pid>-<domain>-<n>], unique across
    processes and domains) and renames it over [path]. If [write]
    raises, the temp file is removed and [path] is untouched. *)
val publish : string -> (out_channel -> unit) -> unit

(** [is_tmp name] recognises a {!publish} temp file name left behind
    by a killed writer. *)
val is_tmp : string -> bool
