(* Reference model for alias grouping: the naive scan that checks the
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
