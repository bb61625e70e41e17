open Netcore
type t = string Asn.Map.t

let empty = Asn.Map.empty
let add t asn org = Asn.Map.add asn org t
let org_of t asn = Asn.Map.find_opt asn t

let to_lines t =
  Asn.Map.fold (fun asn org acc -> Printf.sprintf "%d|%s" asn org :: acc) t []
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
