(* The router graph as a plain list- and set-based build: each trace
   becomes a list of (node, ttl) visits with consecutive hops of one
   router collapsed, and each node keeps one int set of successors and
   one of predecessors, and its alias group's addresses as two address
   sets, split by the observed bit. [Test_rgraph] checks
   [Rgraph.build], which packs the adjacency and the members into
   compressed rows of ids, against it. *)

open Netcore
module Ag = Aliasres.Alias_graph
module ISet = Set.Make (Int)

type t = {
  nodes : Bdrmap.Rgraph.node array;
  addrs : Ipv4.Set.t array;  (** members observed in traces *)
  extra : Ipv4.Set.t array;  (** members never observed *)
  succ : ISet.t array;
  pred : ISet.t array;
}

(* One node per alias group holding an observed or a mate address:
   groups with an observed member first, by their least observed table
   id, then the rest by their least mate id (table ids ascend with
   addresses). [of_group.(g)] is group [g]'s node, or -1. *)
let identify (c : Bdrmap.Collect.t) =
  let aliases = c.aliases in
  let key = Array.make (Ag.group_count aliases) None in
  let offer g k =
    match key.(g) with
    | Some k' when compare k' k <= 0 -> ()
    | _ -> key.(g) <- Some k
  in
  for i = 0 to Ag.length aliases - 1 do
    if Ag.observed aliases i then offer (Ag.group aliases i) (0, i)
  done;
  List.iter (fun (_, _, m) -> offer (Ag.group aliases m) (1, m)) c.mates;
  let keyed = ref [] in
  Array.iteri (fun g k -> Option.iter (fun k -> keyed := (k, g) :: !keyed) k) key;
  let of_group = Array.make (Array.length key) (-1) in
  List.iteri (fun id (_, g) -> of_group.(g) <- id) (List.sort compare !keyed);
  (of_group, List.length !keyed)

let build (c : Bdrmap.Collect.t) =
  let aliases = c.aliases in
  let of_group, n = identify c in
  let min_ttl = Array.make n max_int and traces = Array.make n 0 in
  let dests = Array.make n Asn.Set.empty and last = Array.make n Asn.Set.empty in
  let succ = Array.make n ISet.empty in
  List.iter
    (fun (t : Bdrmap.Trace.t) ->
      let node_seq =
        let rec go acc = function
          | [] -> List.rev acc
          | h :: rest -> (
            let id = of_group.(Ag.group aliases (Bdrmap.Trace.id h)) in
            match acc with
            | (pid, _) :: _ when pid = id -> go acc rest
            | _ -> go ((id, Bdrmap.Trace.ttl h) :: acc) rest)
        in
        go [] (Array.to_list t.hops)
      in
      List.iter
        (fun (id, ttl) ->
          min_ttl.(id) <- min min_ttl.(id) ttl;
          dests.(id) <- Asn.Set.add t.target_asn dests.(id);
          traces.(id) <- traces.(id) + 1)
        node_seq;
      (match List.rev node_seq with
      | (id, _) :: _ -> last.(id) <- Asn.Set.add t.target_asn last.(id)
      | [] -> ());
      let rec wire = function
        | (a, _) :: ((b, _) :: _ as rest) ->
          succ.(a) <- ISet.add b succ.(a);
          wire rest
        | _ -> ()
      in
      wire node_seq)
    c.traces;
  let pred = Array.make n ISet.empty in
  Array.iteri (fun a s -> ISet.iter (fun b -> pred.(b) <- ISet.add a pred.(b)) s) succ;
  let addrs = Array.make n Ipv4.Set.empty and extra = Array.make n Ipv4.Set.empty in
  for i = 0 to Ag.length aliases - 1 do
    let id = of_group.(Ag.group aliases i) in
    if id >= 0 then begin
      let set = if Ag.observed aliases i then addrs else extra in
      set.(id) <- Ipv4.Set.add (Ag.addr aliases i) set.(id)
    end
  done;
  let nodes =
    Array.init n (fun id ->
        { Bdrmap.Rgraph.id; min_ttl = min_ttl.(id); dests = dests.(id); last_toward = last.(id);
          trace_count = traces.(id) })
  in
  { nodes; addrs; extra; succ; pred }
