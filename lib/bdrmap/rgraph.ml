open Netcore
module Ag = Aliasres.Alias_graph
module Codec = Store.Codec

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

let no_node =
  { id = -1; addrs = Ipv4.Set.empty; extra_addrs = Ipv4.Set.empty; min_ttl = 0;
    dests = Asn.Set.empty; last_toward = Asn.Set.empty; trace_count = 0 }

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
    Codec.array !n ~fill:no_node (fun id ->
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

(* {2 Codec}

   graph := n | ASN sets (count, then the distinct [dests] and
            [last_toward] sets in first-seen order, ascending varints)
          | per node in id order: addrs | extra_addrs (ascending u32
            sets) | min_ttl varint | dests | last_toward (indices into
            the ASN sets) | trace_count varint
          | per node: successor ids (ascending varint set)

   Routers near the VP carry the same target-AS sets, so each distinct
   set is decoded once and shared. The address index and the
   predecessor sets are derived on decode: every group member maps to
   its node, and [pred] is [succ] transposed. *)

module Addr_set = Codec.Int_set (Ipv4.Set) (Ipv4)

module Plain = struct
  let of_int = Fun.id
  let to_int = Fun.id
end

module Asn_set = Codec.Int_set (Asn.Set) (Plain)
module Id_set = Codec.Int_set (ISet) (Plain)

let encode w t =
  let ids = Hashtbl.create 1024 and sets = ref [] in
  let id_of s =
    let key = Asn.Set.elements s in
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids key id;
      sets := s :: !sets;
      id
  in
  let refs = Array.map (fun n -> (id_of n.dests, id_of n.last_toward)) t.nodes in
  Codec.put_varint w (Array.length t.nodes);
  Codec.put_list w (fun w s -> Asn_set.put w Codec.put_varint s) (List.rev !sets);
  Array.iteri
    (fun i n ->
      let dests, last = refs.(i) in
      Addr_set.put w Codec.put_u32 n.addrs;
      Addr_set.put w Codec.put_u32 n.extra_addrs;
      Codec.put_varint w n.min_ttl;
      Codec.put_varint w dests;
      Codec.put_varint w last;
      Codec.put_varint w n.trace_count)
    t.nodes;
  Array.iter (Id_set.put w Codec.put_varint) t.succ

let decode r =
  (* Six fields of at least one byte per node, then its successor
     count. *)
  let n = Codec.count r ~min_bytes:7 in
  let asn_sets =
    Codec.array (Codec.count r ~min_bytes:1) ~fill:Asn.Set.empty (fun _ ->
        Asn_set.get r ~min_bytes:1 Codec.varint)
  in
  let asn_set r =
    let i = Codec.varint r in
    if i >= Array.length asn_sets then Codec.fail ();
    asn_sets.(i)
  in
  let n_addrs = ref 0 in
  let addr_set r =
    let s = Addr_set.get r ~min_bytes:4 Codec.u32 in
    n_addrs := !n_addrs + Ipv4.Set.cardinal s;
    s
  in
  let nodes =
    Codec.array n ~fill:no_node (fun id ->
        let addrs = addr_set r in
        let extra_addrs = addr_set r in
        let min_ttl = Codec.varint r in
        let dests = asn_set r in
        let last_toward = asn_set r in
        let trace_count = Codec.varint r in
        { id; addrs; extra_addrs; min_ttl; dests; last_toward; trace_count })
  in
  let id r =
    let id = Codec.varint r in
    if id >= n then Codec.fail ();
    id
  in
  let succ = Codec.array n ~fill:ISet.empty (fun _ -> Id_set.get r ~min_bytes:1 id) in
  (* [succ] transposed through one flat array: predecessors counted,
     then placed in ascending order, each node's run then a set. *)
  let start = Array.make (n + 1) 0 in
  Array.iter (ISet.iter (fun b -> start.(b + 1) <- start.(b + 1) + 1)) succ;
  for b = 1 to n do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let flat = Array.make start.(n) 0 and fill = Array.sub start 0 n in
  Array.iteri
    (fun a s ->
      ISet.iter
        (fun b ->
          flat.(fill.(b)) <- a;
          fill.(b) <- fill.(b) + 1)
        s)
    succ;
  let pred =
    Codec.array n ~fill:ISet.empty (fun b ->
        Id_set.of_sorted flat ~pos:start.(b) ~len:(start.(b + 1) - start.(b)))
  in
  (* Sized for every address; a table short of that count means two
     nodes claimed one address. *)
  let of_addr = Ipv4.Tbl.create !n_addrs in
  Array.iter
    (fun nd ->
      Ipv4.Set.iter (fun a -> Ipv4.Tbl.replace of_addr a nd.id) nd.addrs;
      Ipv4.Set.iter (fun a -> Ipv4.Tbl.replace of_addr a nd.id) nd.extra_addrs)
    nodes;
  if Ipv4.Tbl.length of_addr <> !n_addrs then Codec.fail ();
  { nodes; of_addr; succ; pred }
