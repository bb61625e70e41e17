(* Invariant: sorted, disjoint, non-adjacent inclusive intervals. *)

type t = (int * int) list

let empty = []

let rec insert lo hi = function
  | [] -> [ (lo, hi) ]
  | (a, b) :: rest ->
    if hi + 1 < a then (lo, hi) :: (a, b) :: rest
    else if b + 1 < lo then (a, b) :: insert lo hi rest
    else insert (min lo a) (max hi b) rest

let add_range lo hi t =
  let lo = Ipv4.to_int lo and hi = Ipv4.to_int hi in
  if hi < lo then t else insert lo hi t

let add_prefix p t = add_range (Prefix.first p) (Prefix.last p) t

let remove_range lo hi t =
  let lo = Ipv4.to_int lo and hi = Ipv4.to_int hi in
  if hi < lo then t
  else
    List.concat_map
      (fun (a, b) ->
        if b < lo || a > hi then [ (a, b) ]
        else
          let left = if a < lo then [ (a, lo - 1) ] else [] in
          let right = if b > hi then [ (hi + 1, b) ] else [] in
          left @ right)
      t

let remove_prefix p t = remove_range (Prefix.first p) (Prefix.last p) t
let ranges t = List.map (fun (a, b) -> (Ipv4.of_int a, Ipv4.of_int b)) t
