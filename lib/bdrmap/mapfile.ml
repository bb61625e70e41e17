open Netcore

type t = {
  host_asns : Asn.Set.t;
  origins : (Prefix.t * Asn.t) list;
  merged : Aggregate.merged list;
}

let make ~host_asns ~bgp merged =
  let origins =
    List.filter_map
      (fun p ->
        let os = Routing.Bgp.origins bgp p in
        if Asn.Set.is_empty os then None else Some (p, Asn.Set.min_elt os))
      (Routing.Bgp.prefixes bgp)
  in
  { host_asns; origins; merged }

module Envelope = Store.Envelope

type decode_error = Envelope.error =
  | Absent | Truncated | Bad_magic | Bad_version of int | Stale | Corrupt

let error_label = Envelope.error_label
let codec_version = 1
let fmt = { Envelope.magic = "BDMF"; version = codec_version }
let to_bytes t = Envelope.seal_string fmt (Marshal.to_string t [])

let decode s =
  Result.bind (Envelope.unseal fmt s) (fun (pos, _) ->
      match (Marshal.from_string s pos : t) with
      | t -> Ok t
      | exception _ -> Error Corrupt)

(* [decode] keeps nothing of the string it reads, so the bytes need no
   copy. *)
let of_bytes b = decode (Bytes.unsafe_to_string b)

let save path t =
  let b = to_bytes t in
  Envelope.publish path (fun oc -> output_bytes oc b)

let load path = Result.bind (Envelope.read_file path) decode
