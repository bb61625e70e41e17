open Netcore
module Ag = Aliasres.Alias_graph

type node = {
  id : int;
  addrs : Ipv4.Set.t;
  extra_addrs : Ipv4.Set.t;
  min_ttl : int;
  dests : Asn.Set.t;
  last_toward : Asn.Set.t;
  trace_count : int;
}

module ISet = Set.Make (Int)

type t = {
  nodes : node array;
  of_addr : int Ipv4.Tbl.t;
  succ : ISet.t array;
  pred : ISet.t array;
}

type builder_node = {
  mutable b_addrs : Ipv4.Set.t;
  mutable b_extra : Ipv4.Set.t;
  mutable b_ttl : int;
  mutable b_dests : Asn.Set.t;
  mutable b_last : Asn.Set.t;
  mutable b_traces : int;
}

let build (c : Collect.t) =
  (* 1. Every observed address joins the node of its alias-group root. *)
  let observed =
    List.fold_left
      (fun acc t -> List.fold_left (fun acc a -> Ipv4.Set.add a acc) acc (Trace.hop_addrs t))
      Ipv4.Set.empty c.Collect.traces
  in
  let mates =
    List.fold_left
      (fun acc (_, _, m) -> Ipv4.Set.add m acc)
      Ipv4.Set.empty c.Collect.mates
  in
  let of_addr = Ipv4.Tbl.create 1024 in
  let aliases = Ag.index c.Collect.aliases in
  let builders = ref [] in
  let n = ref 0 in
  let node_for addr =
    match Ipv4.Tbl.find_opt of_addr addr with
    | Some id -> id
    | None ->
      (* Claim the whole alias group at once; it always contains [addr]. *)
      let id = !n in
      incr n;
      let b =
        { b_addrs = Ipv4.Set.empty; b_extra = Ipv4.Set.empty; b_ttl = max_int;
          b_dests = Asn.Set.empty; b_last = Asn.Set.empty; b_traces = 0 }
      in
      builders := (id, b) :: !builders;
      List.iter
        (fun a ->
          Ipv4.Tbl.replace of_addr a id;
          if Ipv4.Set.mem a observed then b.b_addrs <- Ipv4.Set.add a b.b_addrs
          else b.b_extra <- Ipv4.Set.add a b.b_extra)
        (Ag.group aliases addr);
      id
  in
  Ipv4.Set.iter (fun a -> ignore (node_for a)) observed;
  Ipv4.Set.iter (fun a -> ignore (node_for a)) mates;
  let builder_arr = Array.make !n None in
  List.iter (fun (id, b) -> builder_arr.(id) <- Some b) !builders;
  let builder id = Option.get builder_arr.(id) in
  (* 2. Walk traces: hop distance, destinations, adjacency. *)
  let succ = Array.make !n ISet.empty in
  let pred = Array.make !n ISet.empty in
  List.iter
    (fun t ->
      let hops = t.Trace.hops in
      let node_seq =
        (* Collapse consecutive hops mapping to one node (aliases). *)
        let rec go acc = function
          | [] -> List.rev acc
          | (ttl, a) :: rest -> (
            let id = Ipv4.Tbl.find of_addr a in
            match acc with
            | (pid, _) :: _ when pid = id -> go acc rest
            | _ -> go ((id, ttl) :: acc) rest)
        in
        go [] hops
      in
      List.iter
        (fun (id, ttl) ->
          let b = builder id in
          b.b_ttl <- min b.b_ttl ttl;
          b.b_dests <- Asn.Set.add t.Trace.target_asn b.b_dests;
          b.b_traces <- b.b_traces + 1)
        node_seq;
      (match List.rev node_seq with
      | (last_id, _) :: _ ->
        let b = builder last_id in
        b.b_last <- Asn.Set.add t.Trace.target_asn b.b_last
      | [] -> ());
      let rec wire = function
        | (a, _) :: ((b, _) :: _ as rest) ->
          succ.(a) <- ISet.add b succ.(a);
          pred.(b) <- ISet.add a pred.(b);
          wire rest
        | _ -> ()
      in
      wire node_seq)
    c.Collect.traces;
  let nodes =
    Array.init !n (fun id ->
        let b = builder id in
        { id; addrs = b.b_addrs; extra_addrs = b.b_extra; min_ttl = b.b_ttl;
          dests = b.b_dests; last_toward = b.b_last; trace_count = b.b_traces })
  in
  { nodes; of_addr; succ; pred }

let nodes t = Array.to_list t.nodes
let node_count t = Array.length t.nodes
let node t id = t.nodes.(id)

let node_of_addr t a =
  Option.map (fun id -> t.nodes.(id)) (Ipv4.Tbl.find_opt t.of_addr a)

let succs t n = List.map (fun id -> t.nodes.(id)) (ISet.elements t.succ.(n.id))
let preds t n = List.map (fun id -> t.nodes.(id)) (ISet.elements t.pred.(n.id))

let by_hop_distance t =
  List.sort
    (fun a b ->
      match Int.compare a.min_ttl b.min_ttl with
      | 0 -> Int.compare a.id b.id
      | c -> c)
    (nodes t)

let all_addrs n = Ipv4.Set.elements (Ipv4.Set.union n.addrs n.extra_addrs)
