(* Reference model for alias grouping: the naive scan that the production
   [Alias_graph.index] replaced. A group is found by testing every
   mentioned address against [a] with [same_router], so one lookup costs
   a [find] per mentioned address. Optimised paths are checked against
   this, never against each other. *)

open Netcore
module Ag = Aliasres.Alias_graph

(* [group_of g ~mentioned a] is the sorted alias set containing [a];
   [mentioned] lists every address the evidence named. An address never
   mentioned is its own singleton router. *)
let group_of g ~mentioned a =
  match List.filter (fun x -> Ag.same_router g x a) mentioned with
  | [] -> [ a ]
  | grp -> List.sort_uniq Ipv4.compare grp

(* [partition g ~mentioned] is every mentioned address's group, each once,
   in the order [Alias_graph.groups] documents. *)
let partition g ~mentioned =
  List.sort_uniq compare (List.map (group_of g ~mentioned) mentioned)
