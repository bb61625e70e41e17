open Netcore
module Ag = Aliasres.Alias_graph
module Codec = Store.Codec

type node = {
  id : int;
  min_ttl : int;
  dests : Asn.Set.t;
  last_toward : Asn.Set.t;
  trace_count : int;
}

module Plain = struct
  let of_int = Fun.id
  let to_int = Fun.id
end

module Asn_set = Codec.Int_set (Asn.Set) (Plain)

(* Compressed sparse rows: bucket [b] is [flat.(start.(b))] up to
   [flat.(start.(b + 1))]. The buckets are nodes: each holds its
   alias group's table ids, or its neighbors' ids, in ascending order. *)
type csr = { start : int array; flat : int array }

type t = {
  nodes : node array;
  aliases : Ag.t;
  of_group : int array;
  members : csr;
  succ : csr;
  pred : csr;
}

let no_node =
  { id = -1; min_ttl = 0; dests = Asn.Set.empty; last_toward = Asn.Set.empty; trace_count = 0 }

(* [csr n iter] groups the (bucket, int) pairs that [iter] yields into
   [n] buckets, each in the order [iter] yields it: one counting pass
   and one placing pass over a flat array. Counts go one slot late, so
   that while placing, [start.(b + 1)] is bucket [b]'s next free slot;
   once placed, it is bucket [b + 1]'s first. *)
let csr n iter =
  let start = Array.make (n + 2) 0 in
  iter (fun b _ -> start.(b + 2) <- start.(b + 2) + 1);
  for b = 2 to n + 1 do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let flat = Array.make start.(n + 1) 0 in
  iter (fun b v ->
      flat.(start.(b + 1)) <- v;
      start.(b + 1) <- start.(b + 1) + 1);
  { start; flat }

(* [transpose n g] reverses every edge of [g]. The old buckets are
   walked in ascending order, so each new bucket ascends, and a
   repeated edge reaches its new bucket twice in a row and is kept
   once. *)
let transpose n g =
  csr n (fun f ->
      let last = Array.make n (-1) in
      for b = 0 to n - 1 do
        for k = g.start.(b) to g.start.(b + 1) - 1 do
          let a = g.flat.(k) in
          if last.(a) <> b then begin
            last.(a) <- b;
            f a b
          end
        done
      done)

(* Node identity from the address table, shared by [build] and
   [decode]: one node per alias group that holds an observed or a mate
   address, numbered by the group's least observed address, then by its
   least mate address. [of_group.(g)] is group [g]'s node, or -1. *)
let identify (c : Collect.t) =
  let aliases = c.Collect.aliases in
  let of_group = Array.make (Ag.group_count aliases) (-1) and n = ref 0 in
  let claim g =
    if of_group.(g) < 0 then begin
      of_group.(g) <- !n;
      incr n
    end
  in
  for i = 0 to Ag.length aliases - 1 do
    if Ag.observed aliases i then claim (Ag.group aliases i)
  done;
  (* A mate is almost always an alias of its observed [prev]; only the
     groups still unclaimed are sorted by mate (table ids ascend with
     addresses). *)
  List.filter_map
    (fun (_, _, m) -> if of_group.(Ag.group aliases m) < 0 then Some m else None)
    c.Collect.mates
  |> List.sort Int.compare
  |> List.iter (fun m -> claim (Ag.group aliases m));
  (of_group, !n)

(* Nodes in id order; [fields id] gives a node's fields. *)
let make_nodes n fields =
  Codec.array n ~fill:no_node (fun id ->
      let min_ttl, dests, last_toward, trace_count = fields id in
      { id; min_ttl; dests; last_toward; trace_count })

(* A node's members are its alias group's table ids, bucketed in one
   walk of the table, so each bucket ascends; [pred] is [succ]
   transposed. *)
let make aliases of_group nodes succ =
  let n = Array.length nodes in
  let members =
    csr n (fun f ->
        for i = 0 to Ag.length aliases - 1 do
          let id = of_group.(Ag.group aliases i) in
          if id >= 0 then f id i
        done)
  in
  { nodes; aliases; of_group; members; succ; pred = transpose n succ }

let build (c : Collect.t) =
  let aliases = c.Collect.aliases in
  let of_group, n = identify c in
  (* [visit f t] calls [f prev id ttl] on each hop of [t] whose node
     [id] differs from the node before it, [prev] (-1 at the start):
     consecutive hops of one router are one visit. It returns the last
     node visited, or -1. *)
  let visit f t =
    let prev = ref (-1) in
    Array.iter
      (fun h ->
        let id = of_group.(Ag.group aliases (Trace.id h)) in
        if id <> !prev then begin
          f !prev id (Trace.ttl h);
          prev := id
        end)
      t.Trace.hops;
    !prev
  in
  let min_ttl = Array.make n max_int and traces = Array.make n 0 in
  let dests = Array.make n Asn.Set.empty and last = Array.make n Asn.Set.empty in
  List.iter
    (fun t ->
      let asn = t.Trace.target_asn in
      let id =
        visit
          (fun _ id ttl ->
            min_ttl.(id) <- min min_ttl.(id) ttl;
            dests.(id) <- Asn.Set.add asn dests.(id);
            traces.(id) <- traces.(id) + 1)
          t
      in
      if id >= 0 then last.(id) <- Asn.Set.add asn last.(id))
    c.Collect.traces;
  let nodes = make_nodes n (fun id -> (min_ttl.(id), dests.(id), last.(id), traces.(id))) in
  (* Edges grouped by their head, which a transpose sorts and dedupes
     into [succ]. *)
  let into =
    csr n (fun f ->
        List.iter (fun t -> ignore (visit (fun a b _ -> if a >= 0 then f b a) t)) c.Collect.traces)
  in
  make aliases of_group nodes (transpose n into)

let nodes t = Array.to_list t.nodes
let node_count t = Array.length t.nodes
let node t id = t.nodes.(id)

let node_of_id t i =
  let id = t.of_group.(Ag.group t.aliases i) in
  if id < 0 then None else Some t.nodes.(id)

let neighbors t adj n =
  let s = adj.start.(n.id) in
  List.init (adj.start.(n.id + 1) - s) (fun k -> t.nodes.(adj.flat.(s + k)))

let succs t n = neighbors t t.succ n
let preds t n = neighbors t t.pred n

let by_hop_distance t =
  List.sort
    (fun a b ->
      match Int.compare a.min_ttl b.min_ttl with
      | 0 -> Int.compare a.id b.id
      | c -> c)
    (nodes t)

(* Node [id]'s member addresses that [keep] selects by table id, in
   ascending order. *)
let addrs t id keep =
  let m = t.members and acc = ref [] in
  for k = m.start.(id + 1) - 1 downto m.start.(id) do
    let i = m.flat.(k) in
    if keep i then acc := Ag.addr t.aliases i :: !acc
  done;
  !acc

let observed_addrs t id = addrs t id (Ag.observed t.aliases)
let all_addrs t id = addrs t id (fun _ -> true)

(* {2 Codec}

   graph := n | ASN sets (count, then the distinct [dests] and
            [last_toward] sets in first-seen order, ascending varints)
          | per node in id order: min_ttl varint | dests | last_toward
            (indices into the ASN sets) | trace_count varint
          | per node: successor ids (ascending varint set)

   Routers near the VP carry the same target-AS sets, so each distinct
   set is decoded once and shared. Nodes and their addresses are not
   written: they are derived from the collection's address table, as
   [build] derives them, and [pred] is [succ] transposed. *)

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
      Codec.put_varint w n.min_ttl;
      Codec.put_varint w dests;
      Codec.put_varint w last;
      Codec.put_varint w n.trace_count)
    t.nodes;
  for a = 0 to Array.length t.nodes - 1 do
    let s = t.succ.start.(a) and e = t.succ.start.(a + 1) in
    Codec.put_varint w (e - s);
    for k = s to e - 1 do
      Codec.put_varint w t.succ.flat.(k)
    done
  done

let decode (c : Collect.t) r =
  let aliases = c.Collect.aliases in
  let of_group, n = identify c in
  (* Four fields of at least one byte per node, then its successor
     count; the count written must be the table's. *)
  if Codec.count r ~min_bytes:5 <> n then Codec.fail ();
  let asn_sets =
    Codec.array (Codec.count r ~min_bytes:1) ~fill:Asn.Set.empty (fun _ ->
        Asn_set.get r ~min_bytes:1 Codec.varint)
  in
  let asn_set r =
    let i = Codec.varint r in
    if i >= Array.length asn_sets then Codec.fail ();
    asn_sets.(i)
  in
  let nodes =
    make_nodes n (fun _ ->
        let min_ttl = Codec.varint r in
        let dests = asn_set r in
        let last_toward = asn_set r in
        (min_ttl, dests, last_toward, Codec.varint r))
  in
  (* A node's successor ids ascend strictly. *)
  let succ_ids _ =
    let last = ref (-1) in
    Codec.array (Codec.count r ~min_bytes:1) ~fill:0 (fun _ ->
        let id = Codec.varint r in
        if id >= n || id <= !last then Codec.fail ();
        last := id;
        id)
  in
  let succ = Codec.array n ~fill:[||] succ_ids in
  make aliases of_group nodes (csr n (fun f -> Array.iteri (fun a s -> Array.iter (f a) s) succ))
