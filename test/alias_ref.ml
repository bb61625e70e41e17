(* Reference model for alias grouping: the naive scans that check the
   frozen address table ([Alias_graph.freeze]) and the router graph. A
   group is found by testing every mentioned address against [a] with a
   [same_router] predicate, so one lookup costs a test per mentioned
   address. Optimised paths are checked against this, never against
   each other. *)

open Netcore

(* [group_of same ~mentioned a] is the sorted alias set containing [a]
   under [same]; [mentioned] lists every address the evidence named. An
   address never mentioned is its own singleton router. *)
let group_of same ~mentioned a =
  match List.filter (fun x -> same x a) mentioned with
  | [] -> [ a ]
  | grp -> List.sort_uniq Ipv4.compare grp

(* [partition same ~mentioned] is every mentioned address's group, each
   once, in the order [Alias_graph.groups] documents. *)
let partition same ~mentioned =
  List.sort_uniq compare (List.map (group_of same ~mentioned) mentioned)

(* [table_id t a] is [a]'s id in the frozen table [t], found by a scan
   over every id, or [None]. *)
let table_id t a =
  List.find_opt
    (fun i -> Ipv4.equal (Aliasres.Alias_graph.addr t i) a)
    (List.init (Aliasres.Alias_graph.length t) Fun.id)

(* [table_same t a b] asks the frozen table [t] what [Uf.same_router]
   answers while probing: one address, or two ids of one group. The
   scan runs once per partial application [table_same t]. *)
let table_same t =
  let group = Hashtbl.create 256 in
  for i = 0 to Aliasres.Alias_graph.length t - 1 do
    Hashtbl.replace group (Aliasres.Alias_graph.addr t i) (Aliasres.Alias_graph.group t i)
  done;
  fun a b ->
    Ipv4.equal a b
    ||
    match (Hashtbl.find_opt group a, Hashtbl.find_opt group b) with
    | Some g, Some h -> g = h
    | _ -> false
