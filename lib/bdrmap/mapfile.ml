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
(* v2: an explicit codec in place of a marshaled record. *)
let codec_version = 2
let fmt = { Envelope.magic = "BDMF"; version = codec_version }

(* map := host_asns (ascending varint set)
        | origins (count, then network u32 | length u8 | asn varint,
          canonical prefixes ascending)
        | names (count, then the distinct VP names in first-seen order)
        | merged (count, then near_addrs | far_addrs (ascending u32
          sets) | neighbor varint | tags (count, then tag bytes)
          | seen_by (count, then indices into names)) *)
module Codec = Store.Codec
module Addr_set = Codec.Int_set (Ipv4.Set) (Ipv4)
module Asn_set = Rgraph.Asn_set

let put_addr w a = Codec.put_u32 w (Ipv4.to_int a)

let encode w t =
  Asn_set.put w Codec.put_varint t.host_asns;
  Codec.put_list w
    (fun w (p, asn) ->
      put_addr w (Prefix.network p);
      Codec.put_u8 w (Prefix.len p);
      Codec.put_varint w asn)
    t.origins;
  let ids = Hashtbl.create 32 and names = ref [] in
  let id_of name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids name id;
      names := name :: !names;
      id
  in
  let seen_by = List.map (fun m -> List.map id_of m.Aggregate.seen_by) t.merged in
  Codec.put_list w Codec.put_string (List.rev !names);
  Codec.put_varint w (List.length t.merged);
  List.iter2
    (fun (m : Aggregate.merged) ids ->
      Addr_set.put w Codec.put_u32 m.near_addrs;
      Addr_set.put w Codec.put_u32 m.far_addrs;
      Codec.put_varint w m.neighbor;
      Codec.put_list w Heuristics.encode_tag m.tags;
      Codec.put_list w Codec.put_varint ids)
    t.merged seen_by

let decode r =
  let host_asns = Asn_set.get r ~min_bytes:1 Codec.varint in
  let origins =
    Codec.ascending r ~min_bytes:6
      (fun r ->
        let net = Codec.u32 r in
        let len = Codec.u8 r in
        if len > 32 then Codec.fail ();
        let p = Prefix.make (Ipv4.of_int net) len in
        if Ipv4.to_int (Prefix.network p) <> net then Codec.fail ();
        (p, Codec.varint r))
      (fun (a, _) (b, _) -> Prefix.compare a b)
  in
  let names = Array.of_list (Codec.list r ~min_bytes:1 Codec.string) in
  let name r =
    let i = Codec.varint r in
    if i >= Array.length names then Codec.fail ();
    names.(i)
  in
  let merged =
    Codec.list r ~min_bytes:5 (fun r ->
        let near_addrs = Addr_set.get r ~min_bytes:4 Codec.u32 in
        let far_addrs = Addr_set.get r ~min_bytes:4 Codec.u32 in
        let neighbor = Codec.varint r in
        let tags = Codec.list r ~min_bytes:1 Heuristics.decode_tag in
        let seen_by = Codec.list r ~min_bytes:1 name in
        { Aggregate.near_addrs; far_addrs; neighbor; tags; seen_by })
  in
  { host_asns; origins; merged }

let image t =
  let w = Codec.writer ~at:Envelope.header_len 65536 in
  encode w t;
  let b, len = Codec.contents w in
  Envelope.seal ~len fmt b;
  (b, len)

let to_bytes t =
  let b, len = image t in
  if len = Bytes.length b then b else Bytes.sub b 0 len

let of_string s =
  Result.bind (Envelope.unseal fmt s) (fun (pos, len) -> Codec.decode decode s ~pos ~len)

(* [of_string] keeps nothing of the string it reads, so the bytes need
   no copy. *)
let of_bytes b = of_string (Bytes.unsafe_to_string b)

let save path t =
  let b, len = image t in
  Envelope.publish path (fun oc -> output oc b 0 len)

let load path = Result.bind (Envelope.read_file path) of_string
