open Netcore

type t = {
  lans : string Ptrie.t;
  membership : (Asn.t * string) Ipv4.Map.t;
}

let empty = { lans = Ptrie.empty; membership = Ipv4.Map.empty }
let add_prefix t p name = { t with lans = Ptrie.add p name t.lans }

let add_member t addr asn name =
  { t with membership = Ipv4.Map.add addr (asn, name) t.membership }

let ixp_of t addr = Option.map snd (Ptrie.lpm addr t.lans)
let is_ixp_addr t addr = ixp_of t addr <> None

let member_of t addr = Option.map fst (Ipv4.Map.find_opt addr t.membership)

let prefixes t = Ptrie.bindings t.lans

let members t =
  Ipv4.Map.fold (fun a (asn, name) acc -> (a, asn, name) :: acc) t.membership []
  |> List.rev

let to_lines t =
  let lan_lines =
    List.map
      (fun (p, name) -> Printf.sprintf "prefix|%s|%s" (Prefix.to_string p) name)
      (prefixes t)
  in
  let member_lines =
    List.map
      (fun (a, asn, name) -> Printf.sprintf "member|%s|%d|%s" (Ipv4.to_string a) asn name)
      (members t)
  in
  lan_lines @ member_lines

let of_lines lines =
  let parse t line =
    match String.split_on_char '|' (String.trim line) with
    | [ "prefix"; p; name ] -> (
      match Prefix.of_string p with
      | Some p -> Ok (add_prefix t p name)
      | None -> Error (Printf.sprintf "bad ixp prefix line %S" line))
    | [ "member"; a; asn; name ] -> (
      match (Ipv4.of_string a, int_of_string_opt asn) with
      | Some a, Some asn -> Ok (add_member t a asn name)
      | _ -> Error (Printf.sprintf "bad ixp member line %S" line))
    | _ -> Error (Printf.sprintf "bad ixp line %S" line)
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
