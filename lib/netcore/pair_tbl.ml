(* The product's high half, folded onto its low bits, spreads both
   packed ints over the bucket index. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)
