open Netcore

type rel = Customer | Provider | Peer

(* For each AS, the sets of its providers, customers and peers. The two
   directions are kept consistent by construction. *)
type sets = { prov : Asn.Set.t; cust : Asn.Set.t; peer : Asn.Set.t }

type t = sets Asn.Map.t

let empty_sets = { prov = Asn.Set.empty; cust = Asn.Set.empty; peer = Asn.Set.empty }
let empty = Asn.Map.empty

let get t a = Option.value ~default:empty_sets (Asn.Map.find_opt a t)

let add_c2p t ~provider ~customer =
  let sp = get t provider and sc = get t customer in
  let t = Asn.Map.add provider { sp with cust = Asn.Set.add customer sp.cust } t in
  Asn.Map.add customer
    { (get t customer) with prov = Asn.Set.add provider sc.prov }
    t

let add_p2p t a b =
  let sa = get t a in
  let t = Asn.Map.add a { sa with peer = Asn.Set.add b sa.peer } t in
  let sb = get t b in
  Asn.Map.add b { sb with peer = Asn.Set.add a sb.peer } t

(* Drop every relationship between [a] and [b], whichever direction it
   was recorded in. ASes left with no relationships at all keep their
   (empty) entry so [asns] stays stable across a depeering — the packed
   snapshot's ASN axis is derived from it. *)
let remove_edge t a b =
  let scrub x y t =
    match Asn.Map.find_opt x t with
    | None -> t
    | Some s ->
      Asn.Map.add x
        { prov = Asn.Set.remove y s.prov;
          cust = Asn.Set.remove y s.cust;
          peer = Asn.Set.remove y s.peer }
        t
  in
  scrub a b (scrub b a t)

let rel t ~of_ ~with_ =
  let s = get t of_ in
  if Asn.Set.mem with_ s.prov then Some Provider
  else if Asn.Set.mem with_ s.cust then Some Customer
  else if Asn.Set.mem with_ s.peer then Some Peer
  else None

let providers t a = (get t a).prov
let customers t a = (get t a).cust
let peers t a = (get t a).peer

let neighbors t a =
  let s = get t a in
  Asn.Set.union s.prov (Asn.Set.union s.cust s.peer)

let is_provider_of t ~provider ~customer = Asn.Set.mem customer (get t provider).cust
let is_peer t a b = Asn.Set.mem b (get t a).peer
let known t a b = rel t ~of_:a ~with_:b <> None
let asns t = Asn.Map.fold (fun a _ acc -> Asn.Set.add a acc) t Asn.Set.empty

let edge_count t =
  let total =
    Asn.Map.fold
      (fun _ s acc ->
        acc + Asn.Set.cardinal s.prov + Asn.Set.cardinal s.cust + Asn.Set.cardinal s.peer)
      t 0
  in
  total / 2

let to_lines t =
  let lines =
    Asn.Map.fold
      (fun a s acc ->
        let acc =
          Asn.Set.fold
            (fun c acc -> Printf.sprintf "%d|%d|-1" a c :: acc)
            s.cust acc
        in
        Asn.Set.fold
          (fun p acc -> if a < p then Printf.sprintf "%d|%d|0" a p :: acc else acc)
          s.peer acc)
      t []
  in
  List.sort compare lines

let of_lines lines =
  let parse t line =
    match String.split_on_char '|' (String.trim line) with
    | [ a; b; kind ] -> (
      match (int_of_string_opt a, int_of_string_opt b, String.trim kind) with
      | Some a, Some b, "-1" -> Ok (add_c2p t ~provider:a ~customer:b)
      | Some a, Some b, "0" -> Ok (add_p2p t a b)
      | _ -> Error (Printf.sprintf "bad as-rel line %S" line))
    | _ -> Error (Printf.sprintf "bad as-rel line %S" line)
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
