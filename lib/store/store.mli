(** Persistent content-addressed blob store with crash-safe writes.

    A store is a flat directory of entries, one file per key.  Keys are
    32-char hex MD5 digests computed by the caller over whatever
    identifies the cached computation (topology parameters, pipeline
    config, VP identity...); the store itself is generic and holds
    opaque byte payloads.

    Every entry is a {!Envelope} image with magic ["BDRS"] whose
    payload starts with the entry's 32-char key, so the digest covers
    the key too:

    {v
      payload := key (32 bytes, hex MD5, must match the file's key)
               | entry bytes
    v}

    Writes go through {!Envelope.publish} (a uniquely named temp file
    renamed into place), so a reader can never observe a torn entry
    and a killed writer leaves only a [*.tmp-*] orphan that [gc]
    sweeps. Reads validate the envelope and then the embedded key; any
    mismatch is reported as a typed miss so callers can fall back to
    recomputation. *)

(** The shared on-disk header codec, error type and atomic writer. *)
module Envelope = Envelope

(** The bounded byte codec entry payloads are written and read with. *)
module Codec = Codec

type t

(** Latest entry format version written by {!write}. *)
val format_version : int

(** [ensure_dir dir] creates [dir] unless something already exists at
    that path (a directory or not); other failures raise
    [Unix.Unix_error]. *)
val ensure_dir : string -> unit

(** [open_dir dir] opens (creating if needed) a store rooted at [dir]. *)
val open_dir : string -> t

val dir : t -> string

(** Why a read did not produce a payload: the envelope's error.
    [Stale] is an entry whose embedded key is not the requested key. *)
type miss = Envelope.error =
  | Absent | Truncated | Bad_magic | Bad_version of int | Stale | Corrupt

val miss_label : miss -> string

(** [read t ~key] returns the entry's image and the bounds [(image,
    pos, len)] of the payload stored under [key] within it, so the
    caller decodes it in place ({!Codec.decode}), or a typed miss.
    Never raises on a malformed entry. *)
val read : t -> key:string -> (string * int * int, miss) result

(** [write t ~key encode] runs [encode] to write the payload straight
    into the entry's image, atomically persists it under [key]
    ({!Envelope.publish}) and returns the entry size in bytes, header
    included. *)
val write : t -> key:string -> (Codec.writer -> unit) -> int

(** [entries t] lists every entry file as [(key, bytes, status)] where
    [status] is [None] for a valid entry and [Some miss] otherwise,
    sorted by key.  Temp files are not listed. *)
val entries : t -> (string * int * miss option) list

(** What a {!gc} sweep reclaimed: files removed, valid entries kept,
    and on-disk bytes freed (entry payloads plus headers plus orphaned
    temp files, measured before deletion). *)
type gc_stats = { gc_removed : int; gc_kept : int; gc_bytes_freed : int }

(** [gc t] removes invalid entries and orphaned temp files; [~all:true]
    removes valid entries too. *)
val gc : ?all:bool -> t -> gc_stats
