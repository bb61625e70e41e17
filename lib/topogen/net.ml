open Netcore

type as_kind = Tier1 | Transit | Access | Content | Enterprise | Stub | Ree
type announce_policy = All_links | Per_link
type edge_filter = Open | Firewall | Echo_only | Silent

type as_node = {
  asn : Asn.t;
  kind : as_kind;
  org : string;
  cities : Geo.city list;
  mutable prefixes : Prefix.t list;
  mutable infra : Prefix.t list;
  announce_infra : bool;
  filter : edge_filter;
  policy : announce_policy;
}

type ttl_src_mode = Inbound | Toward_reply | Toward_dst
type ipid_mode = Shared_counter | Per_iface | Random_id | Zero_id
type udp_mode = Canonical | Probed_addr | No_udp

type behavior = {
  ttl_expired : bool;
  ttl_src : ttl_src_mode;
  echo : bool;
  unreach : bool;
  udp : udp_mode;
  ipid : ipid_mode;
}

type router = {
  rid : int;
  owner : Asn.t;
  city : Geo.city;
  behavior : behavior;
  mutable canonical : Ipv4.t option;
  mutable ifaces : iface list;
}

and iface = { addr : Ipv4.t; link : int }

type link_kind = Internal | Private_interconnect of Prefix.t | Ixp_lan of string

type link = {
  lid : int;
  kind : link_kind;
  a : int * Ipv4.t;
  b : int * Ipv4.t;
  weight : float;
  live : bool;
}

(* Growable vectors keep router/link ids dense, which lets the routing
   layer use flat arrays for next-hop state. *)
type t = {
  mutable as_map : as_node Asn.Map.t;
  mutable routers : router array;
  mutable nrouters : int;
  mutable links : link array;
  mutable nlinks : int;
  addr_index : router Ipv4.Tbl.t;
  mutable homes : int Ptrie.t;
  mutable adjacency : (link * int) list array;  (* by router id, rebuilt lazily *)
  mutable internal_adj : (link * int) list array;  (* its [Internal] links *)
  mutable adjacency_valid : bool;
}

let dummy_behavior =
  { ttl_expired = true; ttl_src = Inbound; echo = true; unreach = true;
    udp = Canonical; ipid = Shared_counter }

let dummy_city = { Geo.name = "nowhere"; lon = 0.0; lat = 0.0 }

let dummy_router =
  { rid = -1; owner = 0; city = dummy_city; behavior = dummy_behavior;
    canonical = None; ifaces = [] }

let dummy_link =
  { lid = -1; kind = Internal; a = (-1, Ipv4.zero); b = (-1, Ipv4.zero);
    weight = 0.0; live = false }

let create () =
  { as_map = Asn.Map.empty;
    routers = Array.make 64 dummy_router;
    nrouters = 0;
    links = Array.make 64 dummy_link;
    nlinks = 0;
    addr_index = Ipv4.Tbl.create 1024;
    homes = Ptrie.empty;
    adjacency = [||];
    internal_adj = [||];
    adjacency_valid = false }

let add_as t node = t.as_map <- Asn.Map.add node.asn node t.as_map
let find_as t asn = Asn.Map.find_opt asn t.as_map

let as_node t asn =
  match find_as t asn with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Net.as_node: unknown AS%d" asn)

let ases t = List.map snd (Asn.Map.bindings t.as_map)
let asns t = Asn.Map.fold (fun a _ acc -> Asn.Set.add a acc) t.as_map Asn.Set.empty

let grow arr n dummy =
  if n < Array.length arr then arr
  else
    let bigger = Array.make (max 64 (2 * Array.length arr)) dummy in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger

let add_router t ~owner ~city ~behavior =
  let r =
    { rid = t.nrouters; owner; city; behavior; canonical = None; ifaces = [] }
  in
  t.routers <- grow t.routers t.nrouters dummy_router;
  t.routers.(t.nrouters) <- r;
  t.nrouters <- t.nrouters + 1;
  t.adjacency_valid <- false;
  r

let router t rid =
  if rid < 0 || rid >= t.nrouters then invalid_arg "Net.router: bad id";
  t.routers.(rid)

let router_count t = t.nrouters

let routers_of t asn =
  let acc = ref [] in
  for i = t.nrouters - 1 downto 0 do
    if Asn.equal t.routers.(i).owner asn then acc := t.routers.(i) :: !acc
  done;
  !acc

let add_link t kind (r1, a1) (r2, a2) ~weight =
  let l =
    { lid = t.nlinks; kind; a = (r1.rid, a1); b = (r2.rid, a2); weight;
      live = true }
  in
  t.links <- grow t.links t.nlinks dummy_link;
  t.links.(t.nlinks) <- l;
  t.nlinks <- t.nlinks + 1;
  r1.ifaces <- { addr = a1; link = l.lid } :: r1.ifaces;
  r2.ifaces <- { addr = a2; link = l.lid } :: r2.ifaces;
  Ipv4.Tbl.replace t.addr_index a1 r1;
  Ipv4.Tbl.replace t.addr_index a2 r2;
  t.adjacency_valid <- false;
  l

let link t lid =
  if lid < 0 || lid >= t.nlinks then invalid_arg "Net.link: bad id";
  t.links.(lid)

let link_count t = t.nlinks

let links t =
  let acc = ref [] in
  for i = t.nlinks - 1 downto 0 do
    if t.links.(i).live then acc := t.links.(i) :: !acc
  done;
  !acc

(* Retire a link in place: lids stay dense (flat per-lid arrays in the
   forwarding plan remain valid), but the link stops appearing in
   [links]/[neighbors], its interface records are stripped from both
   routers, and the interface addresses leave the probe-visible address
   index (unless the address also serves as a router's canonical). *)
let remove_link t lid =
  if lid < 0 || lid >= t.nlinks then invalid_arg "Net.remove_link: bad id";
  let l = t.links.(lid) in
  if l.live then begin
    t.links.(lid) <- { l with live = false };
    let strip (rid, addr) =
      let r = t.routers.(rid) in
      r.ifaces <- List.filter (fun i -> i.link <> lid) r.ifaces;
      if r.canonical <> Some addr then Ipv4.Tbl.remove t.addr_index addr
    in
    strip l.a;
    strip l.b;
    t.adjacency_valid <- false
  end

let peer_of _t l rid =
  if fst l.a = rid then l.b
  else if fst l.b = rid then l.a
  else invalid_arg "Net.peer_of: router not on link"

let rebuild_adjacency t =
  let adj = Array.make t.nrouters [] in
  for i = t.nlinks - 1 downto 0 do
    let l = t.links.(i) in
    if l.live then begin
      let ra, _ = l.a and rb, _ = l.b in
      adj.(ra) <- (l, rb) :: adj.(ra);
      adj.(rb) <- (l, ra) :: adj.(rb)
    end
  done;
  t.adjacency <- adj;
  t.internal_adj <-
    Array.map (List.filter (fun (l, _) -> l.kind = Internal)) adj;
  t.adjacency_valid <- true

let neighbors t rid =
  if not t.adjacency_valid then rebuild_adjacency t;
  t.adjacency.(rid)

let internal_neighbors t rid =
  if not t.adjacency_valid then rebuild_adjacency t;
  t.internal_adj.(rid)

let owner_of_addr t addr = Ipv4.Tbl.find_opt t.addr_index addr
let set_home t p rid = t.homes <- Ptrie.add p rid t.homes

let home_of t addr =
  match Ptrie.lpm addr t.homes with
  | Some (_, rid) -> Some (router t rid)
  | None -> None

let interdomain_links t =
  List.filter
    (fun l ->
      match l.kind with
      | Internal -> false
      | Private_interconnect _ | Ixp_lan _ -> true)
    (links t)

let interdomain_links_between t x y =
  List.filter
    (fun l ->
      let ra = (router t (fst l.a)).owner and rb = (router t (fst l.b)).owner in
      (Asn.equal ra x && Asn.equal rb y) || (Asn.equal ra y && Asn.equal rb x))
    (interdomain_links t)

let set_canonical t r addr =
  r.canonical <- Some addr;
  Ipv4.Tbl.replace t.addr_index addr r
