(* Uncompressed binary trie over the first [len] bits of the prefix.
   Depth is bounded by 32, so path copying is cheap and no edge
   compression is needed for our workloads. *)

type 'a t = Empty | Node of { value : 'a option; zero : 'a t; one : 'a t }

let empty = Empty

let node value zero one =
  match (value, zero, one) with
  | None, Empty, Empty -> Empty
  | _ -> Node { value; zero; one }

let rec update_at addr len depth f t =
  let value, zero, one =
    match t with
    | Empty -> (None, Empty, Empty)
    | Node { value; zero; one } -> (value, zero, one)
  in
  if depth = len then node (f value) zero one
  else if Ipv4.bit addr depth then node value zero (update_at addr len (depth + 1) f one)
  else node value (update_at addr len (depth + 1) f zero) one

let update p f t = update_at (Prefix.network p) (Prefix.len p) 0 f t
let add p v t = update p (fun _ -> Some v) t

let find_exact p t =
  let addr = Prefix.network p and len = Prefix.len p in
  let rec go depth = function
    | Empty -> None
    | Node { value; zero; one } ->
      if depth = len then value
      else go (depth + 1) (if Ipv4.bit addr depth then one else zero)
  in
  go 0 t

let lpm addr t =
  let rec go depth best = function
    | Empty -> best
    | Node { value; zero; one } ->
      let best =
        match value with
        | Some v -> Some (depth, v)
        | None -> best
      in
      if depth = 32 then best
      else go (depth + 1) best (if Ipv4.bit addr depth then one else zero)
  in
  Option.map (fun (depth, v) -> (Prefix.make addr depth, v)) (go 0 None t)

let rec fold_node prefix_addr depth f t acc =
  match t with
  | Empty -> acc
  | Node { value; zero; one } ->
    let acc =
      match value with
      | Some v -> f (Prefix.make (Ipv4.of_int prefix_addr) depth) v acc
      | None -> acc
    in
    let acc = fold_node prefix_addr (depth + 1) f zero acc in
    if depth = 32 then acc
    else fold_node (prefix_addr lor (1 lsl (31 - depth))) (depth + 1) f one acc

let fold f t acc = fold_node 0 0 f t acc
let cardinal t = fold (fun _ _ n -> n + 1) t 0
let bindings t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])
let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l

let subtree p t =
  let addr = Prefix.network p and len = Prefix.len p in
  let rec descend depth = function
    | Empty -> Empty
    | Node { zero; one; _ } as n ->
      if depth = len then n
      else descend (depth + 1) (if Ipv4.bit addr depth then one else zero)
  in
  let sub = descend 0 t in
  List.rev (fold_node (Ipv4.to_int (Prefix.network p)) len (fun q v acc -> (q, v) :: acc) sub [])
