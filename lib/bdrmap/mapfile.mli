(** Serialization of the served border-map artifact: the all-VP merged
    link set plus the origin view a query server needs to answer
    [owner]/[crossings]/[provenance] without re-running the pipeline.

    The artifact is a {!Store.Envelope} image with magic ["BDMF"] and
    version {!codec_version}; its payload is an explicit
    {!Store.Codec} encoding of {!t} — boxed metadata only, no packed
    arenas (the routing snapshot travels separately through
    {!Routing.Bgp.Snapshot.to_bytes}). The envelope is checked before
    the payload is decoded, and the decoder checks every count, set
    order, prefix and name index behind a valid digest, so a flipped
    byte, a false length, trailing bytes or a crafted payload are a
    typed {!decode_error}, never an exception. *)

open Netcore

type t = {
  host_asns : Asn.Set.t;  (** the hosting org's ASes (world siblings) *)
  origins : (Prefix.t * Asn.t) list;
      (** canonical origin per originated prefix (min ASN of the MOAS
          set), in {!Prefix.compare} order *)
  merged : Aggregate.merged list;  (** the all-VP merged border map *)
}

(** [make ~host_asns ~bgp merged] assembles the artifact, deriving
    [origins] from [bgp]'s originated prefixes. *)
val make : host_asns:Asn.Set.t -> bgp:Routing.Bgp.t -> Aggregate.merged list -> t

(** The envelope's error; {!load} of a missing file is [Absent]. *)
type decode_error = Store.Envelope.error =
  | Absent | Truncated | Bad_magic | Bad_version of int | Stale | Corrupt

val error_label : decode_error -> string

(** Current serialization format version (bump on layout change). *)
val codec_version : int

val to_bytes : t -> bytes
val of_bytes : bytes -> (t, decode_error) result

(** [save path t] writes atomically ({!Store.Envelope.publish}): a
    killed writer leaves the previous file or nothing, never a torn
    artifact. *)
val save : string -> t -> unit

val load : string -> (t, decode_error) result
