open Netcore

type t = Asn.t list

let origin p =
  match List.rev p with
  | [] -> None
  | last :: _ -> Some last

let rec compact = function
  | a :: b :: rest when Asn.equal a b -> compact (b :: rest)
  | a :: rest -> a :: compact rest
  | [] -> []

let links p =
  let rec go = function
    | a :: (b :: _ as rest) -> (a, b) :: go rest
    | _ -> []
  in
  go (compact p)

let has_loop p =
  let c = compact p in
  List.length (List.sort_uniq Asn.compare c) <> List.length c

let of_string s =
  let parts = String.split_on_char ' ' (String.trim s) in
  let parts = List.filter (fun x -> x <> "") parts in
  if parts = [] then None
  else
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | x :: rest -> (
        match Asn.of_string x with
        | Some a -> go (a :: acc) rest
        | None -> None)
    in
    go [] parts

let to_string p = String.concat " " (List.map string_of_int p)
