open Netcore

type entry = { origins : Asn.Set.t; paths : As_path.t list }

(* [idx] is a flattened LPM over the trie, built once the table stops
   changing and the address-lookup path gets hot. Set-once: every
   functional update returns a record with [idx = None], and concurrent
   builders would install structurally equal values (a benign word-sized
   race); [freeze] forces it before any domain fan-out anyway. *)
type t = { trie : entry Ptrie.t; count : int; mutable idx : entry Lpm.t option }

let empty = { trie = Ptrie.empty; count = 0; idx = None }
let min_len = 8
let max_len = 24

(* Below this size the bit-per-node walk beats paying the 65536-slot
   root fill for a table that may be probed a handful of times. *)
let idx_threshold = 4

let index t =
  match t.idx with
  | Some idx -> Some idx
  | None ->
    if t.count < idx_threshold then None
    else begin
      let idx = Lpm.build (Ptrie.bindings t.trie) in
      t.idx <- Some idx;
      Some idx
    end

let freeze t = ignore (index t)

let add_route t prefix path =
  if Prefix.len prefix < min_len || Prefix.len prefix > max_len then t
  else
    match As_path.origin path with
    | None -> t
    | Some origin ->
      let fresh = ref false in
      let trie =
        Ptrie.update prefix
          (function
            | None ->
              fresh := true;
              Some { origins = Asn.Set.singleton origin; paths = [ path ] }
            | Some e ->
              Some { origins = Asn.Set.add origin e.origins; paths = path :: e.paths })
          t.trie
      in
      { trie; count = (if !fresh then t.count + 1 else t.count); idx = None }

let prefixes t = List.map fst (Ptrie.bindings t.trie)
let cardinal t = t.count

let origins t p =
  match Ptrie.find_exact p t.trie with
  | Some e -> e.origins
  | None -> Asn.Set.empty

let paths t p =
  match Ptrie.find_exact p t.trie with
  | Some e -> List.rev e.paths
  | None -> []

let all_paths t = Ptrie.fold (fun _ e acc -> List.rev_append e.paths acc) t.trie []

let lpm t addr =
  match index t with
  | Some idx -> (
    match Lpm.lookup idx addr with
    | Some (p, e) -> Some (p, e.origins)
    | None -> None)
  | None -> (
    match Ptrie.lpm addr t.trie with
    | Some (p, e) -> Some (p, e.origins)
    | None -> None)

let origin_asns t addr =
  match lpm t addr with
  | Some (_, origins) -> origins
  | None -> Asn.Set.empty

let prefixes_originated_by t asns =
  Ptrie.fold
    (fun p e acc -> if Asn.Set.disjoint e.origins asns then acc else p :: acc)
    t.trie []
  |> List.sort Prefix.compare

let more_specifics t p =
  Ptrie.subtree p t.trie
  |> List.filter_map (fun (q, _) -> if Prefix.equal p q then None else Some q)

let to_lines t =
  Ptrie.fold
    (fun p e acc ->
      List.fold_left
        (fun acc path -> Printf.sprintf "%s|%s" (Prefix.to_string p) (As_path.to_string path) :: acc)
        acc (List.rev e.paths))
    t.trie []
  |> List.sort compare

let parse_line line =
  match String.split_on_char '|' line with
  | [ pfx; path ] -> (
    match (Prefix.of_string (String.trim pfx), As_path.of_string path) with
    | Some p, Some ap -> Ok (p, ap)
    | None, _ -> Error (Printf.sprintf "bad prefix in %S" line)
    | _, None -> Error (Printf.sprintf "bad path in %S" line))
  | _ -> Error (Printf.sprintf "expected prefix|path in %S" line)

let of_lines lines =
  let rec go t = function
    | [] -> Ok t
    | line :: rest ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go t rest
      else (
        match parse_line line with
        | Ok (p, path) -> go (add_route t p path) rest
        | Error _ as e -> e)
  in
  go empty lines
