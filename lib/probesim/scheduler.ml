type phase = Traceroute | Alias | Prefixscan

type t = {
  pps : float;
  mutable trace : int;
  mutable alias : int;
  mutable pscan : int;
}

let create ~pps = { pps; trace = 0; alias = 0; pscan = 0 }

let note t phase n =
  match phase with
  | Traceroute -> t.trace <- t.trace + n
  | Alias -> t.alias <- t.alias + n
  | Prefixscan -> t.pscan <- t.pscan + n

let count t = function
  | Traceroute -> t.trace
  | Alias -> t.alias
  | Prefixscan -> t.pscan

let total t = t.trace + t.alias + t.pscan
let duration_s t = float_of_int (total t) /. t.pps
let duration_h t = duration_s t /. 3600.0
let pps t = t.pps

let pp ppf t =
  Format.fprintf ppf
    "probes: trace=%d alias=%d prefixscan=%d total=%d (%.1f h at %.0f pps)" t.trace
    t.alias t.pscan (total t) (duration_h t) t.pps

module Codec = Store.Codec

let encode w t =
  Codec.put_float w t.pps;
  Codec.put_varint w t.trace;
  Codec.put_varint w t.alias;
  Codec.put_varint w t.pscan

let decode r =
  let pps = Codec.float r in
  let trace = Codec.varint r in
  let alias = Codec.varint r in
  let pscan = Codec.varint r in
  { pps; trace; alias; pscan }
