(* Reference model for Routing.Bgp: the boxed Gao-Rexford propagation
   the slot kernel replaced, kept unchanged as the oracle. It works on
   ASN sets and hash tables straight off the relationship graph, with
   no interning, no packed words and no shared code with lib/routing.
   Per-prefix tables are memoized only so a test can ask every
   (AS, prefix) cell without recomputing the prefix each time. *)

open Netcore
module Net = Topogen.Net
module B = Bgpdata
module Bgp = Routing.Bgp

type t = {
  net : Net.t;
  rels : B.As_rel.t;
  origin_trie : Asn.Set.t Ptrie.t;
  prefixes : Prefix.t list;  (* sorted, deduplicated *)
  tables : (Prefix.t, Bgp.route Asn.Tbl.t) Hashtbl.t;
}

let create net rels ~originated =
  let origin_trie =
    List.fold_left
      (fun trie (p, asns) ->
        Ptrie.update p
          (function
            | None -> Some asns
            | Some prev -> Some (Asn.Set.union prev asns))
          trie)
      Ptrie.empty originated
  in
  { net; rels; origin_trie;
    prefixes = List.sort_uniq Prefix.compare (List.map fst originated);
    tables = Hashtbl.create 64 }

let of_world (w : Topogen.Gen.world) =
  create w.Topogen.Gen.net w.Topogen.Gen.rels_truth
    ~originated:(Topogen.Gen.originated w)

let origins t p =
  Option.value ~default:Asn.Set.empty (Ptrie.find_exact p t.origin_trie)

let is_origin t asn p = Asn.Set.mem asn (origins t p)

(* Propagation for one prefix. Three stages:
   1. "up": customer routes climb c2p edges from the origins;
   2. "peer": one peer edge on top of an up route;
   3. "down": best routes descend p2c edges (Dijkstra over hop counts,
      since a provider route can feed another provider route). *)
let compute t p : Bgp.route Asn.Tbl.t =
  let os = origins t p in
  let up : int Asn.Tbl.t = Asn.Tbl.create 256 in
  (* Stage 1: BFS in hop order. *)
  let q = Queue.create () in
  Asn.Set.iter
    (fun o ->
      Asn.Tbl.replace up o 0;
      Queue.add o q)
    os;
  while not (Queue.is_empty q) do
    let x = Queue.pop q in
    let d = Asn.Tbl.find up x in
    Asn.Set.iter
      (fun prov ->
        if not (Asn.Tbl.mem up prov) then begin
          Asn.Tbl.replace up prov (d + 1);
          Queue.add prov q
        end)
      (B.As_rel.providers t.rels x)
  done;
  (* Stage 2: peer routes. *)
  let peer : int Asn.Tbl.t = Asn.Tbl.create 256 in
  Asn.Tbl.iter
    (fun x d ->
      Asn.Set.iter
        (fun y ->
          if not (Asn.Set.mem y os) then
            match Asn.Tbl.find_opt peer y with
            | Some d' when d' <= d + 1 -> ()
            | _ -> Asn.Tbl.replace peer y (d + 1))
        (B.As_rel.peers t.rels x))
    up;
  (* Stage 3: provider routes via Dijkstra. Lazy deletion on a binary
     heap: a relaxation pushes a fresh (dist, asn) entry and stale ones
     are skipped on pop, so the final [prov] table is identical to the
     old set-as-priority-queue version whatever the tie order. *)
  let best_non_prov x =
    match (Asn.Tbl.find_opt up x, Asn.Tbl.find_opt peer x) with
    | Some d, _ -> Some (Bgp.Cust, d)
    | None, Some d -> Some (Bgp.Peer, d)
    | None, None -> None
  in
  let prov : int Asn.Tbl.t = Asn.Tbl.create 256 in
  let pq =
    Heap.create (fun (d1, x1) (d2, x2) ->
        match Int.compare d1 d2 with 0 -> Asn.compare x1 x2 | c -> c)
  in
  (* Seed: every AS holding a cust/peer route exports it to customers. *)
  let seed x d =
    Asn.Set.iter
      (fun c ->
        if best_non_prov c = None && not (Asn.Set.mem c os) then
          match Asn.Tbl.find_opt prov c with
          | Some d' when d' <= d + 1 -> ()
          | _ ->
            Asn.Tbl.replace prov c (d + 1);
            Heap.push pq (d + 1, c))
      (B.As_rel.customers t.rels x)
  in
  Asn.Tbl.iter seed up;
  Asn.Tbl.iter (fun x d -> if Asn.Tbl.find_opt up x = None then seed x d) peer;
  let rec drain () =
    match Heap.pop_opt pq with
    | None -> ()
    | Some (d, x) ->
      if Asn.Tbl.find_opt prov x = Some d then
        Asn.Set.iter
          (fun c ->
            if best_non_prov c = None && not (Asn.Set.mem c os) then
              match Asn.Tbl.find_opt prov c with
              | Some d' when d' <= d + 1 -> ()
              | _ ->
                Asn.Tbl.replace prov c (d + 1);
                Heap.push pq (d + 1, c))
          (B.As_rel.customers t.rels x);
      drain ()
  in
  drain ();
  (* Assemble per-AS best routes with the full next-hop set. *)
  let table : Bgp.route Asn.Tbl.t = Asn.Tbl.create 256 in
  let consider x =
    if Asn.Set.mem x os then ()
    else
      let best =
        match (Asn.Tbl.find_opt up x, Asn.Tbl.find_opt peer x, Asn.Tbl.find_opt prov x) with
        | Some d, _, _ -> Some (Bgp.Cust, d)
        | None, Some d, _ -> Some (Bgp.Peer, d)
        | None, None, Some d -> Some (Bgp.Prov, d)
        | None, None, None -> None
      in
      match best with
      | None -> ()
      | Some (cls, d) ->
        let nexthops =
          match cls with
          | Bgp.Cust ->
            Asn.Set.filter
              (fun c -> Asn.Tbl.find_opt up c = Some (d - 1))
              (B.As_rel.customers t.rels x)
          | Bgp.Peer ->
            Asn.Set.filter
              (fun y -> Asn.Tbl.find_opt up y = Some (d - 1))
              (B.As_rel.peers t.rels x)
          | Bgp.Prov ->
            Asn.Set.filter
              (fun pr ->
                let bd =
                  match
                    ( Asn.Tbl.find_opt up pr,
                      Asn.Tbl.find_opt peer pr,
                      Asn.Tbl.find_opt prov pr )
                  with
                  | Some d', _, _ -> Some d'
                  | None, Some d', _ -> Some d'
                  | None, None, Some d' -> Some d'
                  | None, None, None -> None
                in
                bd = Some (d - 1) || (d = 1 && Asn.Set.mem pr os))
              (B.As_rel.providers t.rels x)
        in
        (* Direct neighbors of an origin also see the origin itself as a
           next hop at dist 1. *)
        let nexthops =
          if d = 1 then
            Asn.Set.union nexthops
              (Asn.Set.filter
                 (fun o ->
                   B.As_rel.known t.rels x o
                   &&
                   match B.As_rel.rel t.rels ~of_:x ~with_:o with
                   | Some B.As_rel.Customer -> cls = Bgp.Cust
                   | Some B.As_rel.Peer -> cls = Bgp.Peer
                   | Some B.As_rel.Provider -> cls = Bgp.Prov
                   | None -> false)
                 os)
          else nexthops
        in
        if not (Asn.Set.is_empty nexthops) then
          Asn.Tbl.replace table x
            { Bgp.cls; dist = d; nexthops; parent = Asn.Set.min_elt_opt nexthops }
  in
  Asn.Set.iter consider (Net.asns t.net);
  (* Relationship-only ASes (e.g. router-less siblings) still need rows. *)
  Asn.Set.iter consider (B.As_rel.asns t.rels);
  table

let table t p =
  match Hashtbl.find_opt t.tables p with
  | Some tbl -> tbl
  | None ->
    let tbl = compute t p in
    Hashtbl.replace t.tables p tbl;
    tbl

let route t asn p = Asn.Tbl.find_opt (table t p) asn

let lookup t asn addr =
  match Ptrie.lpm addr t.origin_trie with
  | None -> None
  | Some (p, _) -> Some (p, route t asn p)

let as_path t asn p =
  if is_origin t asn p then Some [ asn ]
  else
    let rec follow x acc guard =
      if guard > 64 then None
      else if is_origin t x p then Some (List.rev (x :: acc))
      else
        match route t x p with
        | None -> None
        | Some r -> (
          match r.Bgp.parent with
          | None -> Some (List.rev (x :: acc))
          | Some y -> follow y (x :: acc) (guard + 1))
    in
    follow asn [] 0

(* Every ASN a snapshot of this world interns, and every ASN the
   reference can give a route: the net's ASes plus relationship-only
   ones. *)
let asns t = Asn.Set.elements (Asn.Set.union (Net.asns t.net) (B.As_rel.asns t.rels))

(* Route records hold Asn.Set.t values; compare through a projection so
   the checks do not depend on balanced-tree internals. *)
let proj = function
  | None -> None
  | Some (r : Bgp.route) -> Some (r.cls, r.dist, Asn.Set.elements r.nexthops, r.parent)

(* [check_snapshot t snap] compares every (AS, prefix) route and
   as_path of [snap] against the reference, and every AS's lookup at
   each prefix's first and last address and at one address outside the
   simulated space. [Error] names the first mismatch. *)
let check_snapshot t snap =
  let exception Mismatch of string in
  let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt in
  try
    if Bgp.prefixes snap <> t.prefixes then fail "prefix sets differ from the reference";
    let asns = asns t in
    List.iter
      (fun p ->
        List.iter
          (fun a ->
            if proj (Bgp.route snap a p) <> proj (route t a p) then
              fail "route AS%d %s differs from the reference" a (Prefix.to_string p);
            if Bgp.as_path snap a p <> as_path t a p then
              fail "as_path AS%d %s differs from the reference" a
                (Prefix.to_string p))
          asns)
      t.prefixes;
    let lproj = Option.map (fun (q, r) -> (q, proj r)) in
    List.iter
      (fun addr ->
        List.iter
          (fun a ->
            if lproj (Bgp.lookup snap a addr) <> lproj (lookup t a addr) then
              fail "lookup AS%d %s differs from the reference" a (Ipv4.to_string addr))
          asns)
      (Ipv4.of_string_exn "203.0.113.9"
      :: List.concat_map (fun p -> [ Prefix.first p; Prefix.last p ]) t.prefixes);
    Ok ()
  with Mismatch m -> Error m
