open Netcore
module SMap = Map.Make (String)

type t = { by_asn : string Asn.Map.t; by_org : Asn.Set.t SMap.t }

let empty = { by_asn = Asn.Map.empty; by_org = SMap.empty }

let add t asn org =
  let by_asn = Asn.Map.add asn org t.by_asn in
  let cur = Option.value ~default:Asn.Set.empty (SMap.find_opt org t.by_org) in
  { by_asn; by_org = SMap.add org (Asn.Set.add asn cur) t.by_org }

let org_of t asn = Asn.Map.find_opt asn t.by_asn

let siblings t asn =
  match org_of t asn with
  | None -> Asn.Set.singleton asn
  | Some org -> Option.value ~default:(Asn.Set.singleton asn) (SMap.find_opt org t.by_org)

let same_org t a b =
  match (org_of t a, org_of t b) with
  | Some x, Some y -> String.equal x y
  | _ -> false

let to_lines t =
  Asn.Map.fold (fun asn org acc -> Printf.sprintf "%d|%s" asn org :: acc) t.by_asn []
  |> List.sort compare

let of_lines lines =
  let parse t line =
    match String.split_on_char '|' (String.trim line) with
    | [ asn; org ] -> (
      match int_of_string_opt asn with
      | Some asn -> Ok (add t asn org)
      | None -> Error (Printf.sprintf "bad as2org line %S" line))
    | _ -> Error (Printf.sprintf "bad as2org line %S" line)
  in
  let rec go t = function
    | [] -> Ok t
    | line :: rest ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go t rest
      else (
        match parse t line with
        | Ok t -> go t rest
        | Error _ as e -> e)
  in
  go empty lines
