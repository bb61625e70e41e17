open Netcore

type t = { mutable next : int }

let create ?first () =
  match first with
  | None -> { next = Ipv4.to_int (Ipv4.of_octets 1 0 0 0) }
  | Some a -> { next = Ipv4.to_int a }

(* Last allocatable address: everything at 224.0.0.0 and above is
   multicast or class E. A block must fit entirely at or below this. *)
let ceiling = 0xDFFFFFFF

let alloc_block t len =
  if len < 2 || len > 32 then invalid_arg "Addressing.alloc_block: bad len";
  let size = 1 lsl (32 - len) in
  (* Every adjustment below re-aligns before re-checking, so the
     exhaustion test always sees the block's final start address — the
     historical order (check, then re-align unchecked) could push a
     block past the ceiling for sizes above a /8. *)
  let rec settle () =
    t.next <- (t.next + size - 1) land lnot (size - 1);
    if t.next + size - 1 > ceiling then
      raise
        (Invalid_argument
           (Printf.sprintf
              "Addressing.alloc_block: address space exhausted (next 0x%X, need %d \
               addresses below 0x%X)"
              t.next size (ceiling + 1)));
    let a = Ipv4.of_int t.next in
    if Ipv4.reserved a || Ipv4.private_use a then begin
      (* Jump to the next /8 boundary and settle again. *)
      t.next <- (t.next lor 0xFFFFFF) + 1;
      settle ()
    end
  in
  settle ();
  let p = Prefix.make (Ipv4.of_int t.next) len in
  t.next <- t.next + size;
  p

type pool = { block : Prefix.t; mutable cursor : int }

let pool_of block = { block; cursor = Ipv4.to_int (Prefix.first block) }

let alloc_subnet pool len =
  if len < 24 || len > 32 then invalid_arg "Addressing.alloc_subnet: bad len";
  let size = 1 lsl (32 - len) in
  let start = (pool.cursor + size - 1) land lnot (size - 1) in
  if start + size - 1 > Ipv4.to_int (Prefix.last pool.block) then
    raise
      (Invalid_argument
         (Printf.sprintf "Addressing.alloc_subnet: pool %s exhausted"
            (Prefix.to_string pool.block)));
  pool.cursor <- start + size;
  Prefix.make (Ipv4.of_int start) len

let alloc_addr pool = Prefix.first (alloc_subnet pool 32)

let p2p_addrs subnet =
  match Prefix.len subnet with
  | 31 -> (Prefix.first subnet, Prefix.last subnet)
  | 30 ->
    let base = Ipv4.to_int (Prefix.first subnet) in
    (Ipv4.of_int (base + 1), Ipv4.of_int (base + 2))
  | _ -> invalid_arg "Addressing.p2p_addrs: expected /30 or /31"
