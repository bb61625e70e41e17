open Netcore

type record = {
  registry : string;
  cc : string;
  start : Ipv4.t;
  count : int;
  date : string;
  status : string;
  opaque_id : string;
}

(* Records indexed by their covering /8 would be overkill; a sorted array
   with binary search over start addresses keeps lookups O(log n). The
   structure is built once and queried many times. *)
type t = { recs : record list; mutable index : record array option }

let empty = { recs = []; index = None }
let add t r = { recs = r :: t.recs; index = None }
let records t = List.rev t.recs

let index t =
  match t.index with
  | Some a -> a
  | None ->
    let a = Array.of_list t.recs in
    Array.sort (fun r1 r2 -> Ipv4.compare r1.start r2.start) a;
    t.index <- Some a;
    a

let find t addr =
  let a = index t in
  let n = Array.length a in
  (* Rightmost record with start <= addr. *)
  let rec bsearch lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      if Ipv4.compare a.(mid).start addr <= 0 then bsearch (mid + 1) hi (Some mid)
      else bsearch lo (mid - 1) best
  in
  match bsearch 0 (n - 1) None with
  | None -> None
  | Some i ->
    let r = a.(i) in
    if Ipv4.diff addr r.start < r.count then Some r else None

let opaque_id_of t addr = Option.map (fun r -> r.opaque_id) (find t addr)

let line_of_record r =
  Printf.sprintf "%s|%s|ipv4|%s|%d|%s|%s|%s" r.registry r.cc (Ipv4.to_string r.start)
    r.count r.date r.status r.opaque_id

let to_lines t = List.map line_of_record (records t)

let parse_line line =
  match String.split_on_char '|' (String.trim line) with
  | [ registry; cc; "ipv4"; start; count; date; status; opaque_id ] -> (
    match (Ipv4.of_string start, int_of_string_opt count) with
    | Some start, Some count when count > 0 ->
      Ok { registry; cc; start; count; date; status; opaque_id }
    | _ -> Error (Printf.sprintf "bad delegation line %S" line))
  | _ -> Error (Printf.sprintf "bad delegation line %S" line)

let of_lines lines =
  let rec go t = function
    | [] -> Ok t
    | line :: rest ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go t rest
      else (
        match parse_line line with
        | Ok r -> go (add t r) rest
        | Error _ as e -> e)
  in
  go empty lines
