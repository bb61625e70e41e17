type t = { network : Ipv4.t; len : int }

let mask_of_len len = if len = 0 then 0 else 0xFFFF_FFFF lsl (32 - len) land 0xFFFF_FFFF

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: len out of range";
  { network = Ipv4.of_int (Ipv4.to_int addr land mask_of_len len); len }

let network p = p.network
let len p = p.len

let of_string s =
  match String.index_opt s '/' with
  | None -> None
  | Some i -> (
    let addr = String.sub s 0 i in
    let l = String.sub s (i + 1) (String.length s - i - 1) in
    match (Ipv4.of_string addr, int_of_string_opt l) with
    | Some a, Some len when len >= 0 && len <= 32 ->
      let p = make a len in
      if Ipv4.equal p.network a then Some p else None
    | _ -> None)

let of_string_exn s =
  match of_string s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string_exn: %S" s)

let to_string p = Printf.sprintf "%s/%d" (Ipv4.to_string p.network) p.len

let compare a b =
  match Ipv4.compare a.network b.network with
  | 0 -> Int.compare a.len b.len
  | c -> c

let equal a b = compare a b = 0

let mem addr p =
  Ipv4.to_int addr land mask_of_len p.len = Ipv4.to_int p.network

let first p = p.network
let last p = Ipv4.of_int (Ipv4.to_int p.network lor (lnot (mask_of_len p.len) land 0xFFFF_FFFF))
let size p = 1 lsl (32 - p.len)

let split p =
  if p.len >= 32 then invalid_arg "Prefix.split: /32";
  let lo = { network = p.network; len = p.len + 1 } in
  let hi =
    { network = Ipv4.of_int (Ipv4.to_int p.network lor (1 lsl (32 - p.len - 1)));
      len = p.len + 1 }
  in
  (lo, hi)

let subnet_mate addr len =
  let a = Ipv4.to_int addr in
  match len with
  | 31 -> Some (Ipv4.of_int (a lxor 1))
  | 30 ->
    let pos = a land 3 in
    if pos = 1 then Some (Ipv4.of_int (a + 1))
    else if pos = 2 then Some (Ipv4.of_int (a - 1))
    else None
  | _ -> invalid_arg "Prefix.subnet_mate: len must be 30 or 31"

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
