type t = int

let to_string a = Printf.sprintf "AS%d" a

let of_string s =
  let s =
    if String.length s > 2 && (String.sub s 0 2 = "AS" || String.sub s 0 2 = "as") then
      String.sub s 2 (String.length s - 2)
    else s
  in
  match int_of_string_opt s with
  | Some n when n >= 0 -> Some n
  | _ -> None

let compare = Int.compare
let equal = Int.equal

module Set = Set.Make (Int)
module Map = Map.Make (Int)
module Tbl = Hashtbl.Make (Int)

let counts l =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun a -> Hashtbl.replace tbl a (1 + Option.value ~default:0 (Hashtbl.find_opt tbl a)))
    l;
  Hashtbl.fold (fun a n acc -> (a, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let most_frequent l =
  match counts l with
  | [] -> None
  | cs ->
    let best =
      List.fold_left
        (fun (ba, bn) (a, n) -> if n > bn then (a, n) else (ba, bn))
        (List.hd cs) (List.tl cs)
    in
    Some (fst best)
