(* Temporal churn over a generated world: a seeded schedule of topology
   events applied on the simulated clock. Each event mutates the
   [Net.t] in place (old routing snapshots only read their own packed
   arrays, never the net) and rebuilds the affected world-record fields
   functionally.

   Two invariants every event preserves, because the incremental
   re-freeze ([Routing.Bgp.refreeze] / [Routing.Forwarding.patch])
   depends on them:
   - new ASNs are allocated strictly above every existing ASN, so the
     packed snapshot's interned ASN axis only ever appends;
   - the internal topology of a pre-existing AS never changes — new
     routers belong to new ASes and link events are interdomain — so
     its planned IGP distance matrix stays exact. *)

open Netcore
module B = Bgpdata

type kind =
  | Link_add
  | Link_remove
  | New_customer
  | Depeer
  | Aggregate
  | Deaggregate

let all_kinds =
  [ Link_add; Link_remove; New_customer; Depeer; Aggregate; Deaggregate ]

let kind_label = function
  | Link_add -> "link_add"
  | Link_remove -> "link_remove"
  | New_customer -> "new_customer"
  | Depeer -> "depeer"
  | Aggregate -> "aggregate"
  | Deaggregate -> "deaggregate"

type event =
  | Added_link of { x : Asn.t; y : Asn.t; lid : int }
  | Removed_link of { x : Asn.t; y : Asn.t; lid : int }
  | Customer_joined of {
      asn : Asn.t;
      providers : Asn.Set.t;
      prefix : Prefix.t;
    }
  | Depeered of { x : Asn.t; y : Asn.t }
  | Aggregated of { asn : Asn.t; parent : Prefix.t; halves : Prefix.t * Prefix.t }
  | Deaggregated of {
      asn : Asn.t;
      parent : Prefix.t;
      halves : Prefix.t * Prefix.t;
    }

type timed = { ev_time : float; ev : event }

let kind_of = function
  | Added_link _ -> Link_add
  | Removed_link _ -> Link_remove
  | Customer_joined _ -> New_customer
  | Depeered _ -> Depeer
  | Aggregated _ -> Aggregate
  | Deaggregated _ -> Deaggregate

let describe { ev_time; ev } =
  let body =
    match ev with
    | Added_link { x; y; lid } ->
      Printf.sprintf "link_add AS%d-AS%d lid=%d" x y lid
    | Removed_link { x; y; lid } ->
      Printf.sprintf "link_remove AS%d-AS%d lid=%d" x y lid
    | Customer_joined { asn; providers; prefix } ->
      Printf.sprintf "new_customer AS%d providers=[%s] prefix=%s" asn
        (String.concat ","
           (List.map string_of_int (Asn.Set.elements providers)))
        (Prefix.to_string prefix)
    | Depeered { x; y } -> Printf.sprintf "depeer AS%d-AS%d" x y
    | Aggregated { asn; parent; halves = h1, h2 } ->
      Printf.sprintf "aggregate AS%d %s+%s->%s" asn (Prefix.to_string h1)
        (Prefix.to_string h2) (Prefix.to_string parent)
    | Deaggregated { asn; parent; halves = h1, h2 } ->
      Printf.sprintf "deaggregate AS%d %s->%s+%s" asn
        (Prefix.to_string parent) (Prefix.to_string h1) (Prefix.to_string h2)
  in
  Printf.sprintf "t=%.0f %s" ev_time body

(* Chained digest over the event log: the store-key component that
   distinguishes epoch N's artifacts from epoch 0's. The empty batch
   leaves the digest unchanged, so an unevolved world keys exactly as
   it always has. *)
let log_digest prev = function
  | [] -> prev
  | evs ->
    List.fold_left
      (fun acc ev -> Digest.to_hex (Digest.string (acc ^ "\n" ^ describe ev)))
      prev evs

type schedule = {
  ev_seed : int;
  ev_epochs : int;
  ev_batch : int;
  ev_interval : float;
  w_link_add : float;
  w_link_remove : float;
  w_new_customer : float;
  w_depeer : float;
  w_aggregate : float;
  w_deaggregate : float;
}

let default_schedule =
  { ev_seed = 7;
    ev_epochs = 4;
    ev_batch = 3;
    ev_interval = 86_400.0;
    w_link_add = 1.0;
    w_link_remove = 1.0;
    w_new_customer = 1.5;
    w_depeer = 0.75;
    w_aggregate = 0.75;
    w_deaggregate = 0.75 }

(* Same fail-fast style as [Gen.validate_params]: reject schedules the
   driver below cannot survive — negative counts, a non-positive or
   non-finite interval, and weights that are not finite non-negative
   reals (a NaN weight would silently unbalance [Rng.weighted]). *)
let validate_schedule s =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if s.ev_epochs < 0 then
    fail "Evolve: ev_epochs must be >= 0 (got %d)" s.ev_epochs;
  if s.ev_batch < 0 then fail "Evolve: ev_batch must be >= 0 (got %d)" s.ev_batch;
  if (not (Float.is_finite s.ev_interval)) || s.ev_interval <= 0.0 then
    fail "Evolve: ev_interval must be finite and > 0 (got %g)" s.ev_interval;
  List.iter
    (fun (name, v) ->
      if (not (Float.is_finite v)) || v < 0.0 then
        fail "Evolve: %s must be finite and >= 0 (got %g)" name v)
    [ ("w_link_add", s.w_link_add);
      ("w_link_remove", s.w_link_remove);
      ("w_new_customer", s.w_new_customer);
      ("w_depeer", s.w_depeer);
      ("w_aggregate", s.w_aggregate);
      ("w_deaggregate", s.w_deaggregate) ];
  if
    s.w_link_add +. s.w_link_remove +. s.w_new_customer +. s.w_depeer
    +. s.w_aggregate +. s.w_deaggregate <= 0.0
  then fail "Evolve: at least one event-class weight must be > 0"

(* ------------------------------------------------------------------ *)
(* Eligibility plumbing                                               *)

let per_link net asn = (Net.as_node net asn).Net.policy = Net.Per_link

(* Live interdomain links grouped by unordered AS pair, sorted so the
   candidate order is independent of hash-table iteration. *)
let interdomain_pairs net =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (l : Net.link) ->
      let x = (Net.router net (fst l.Net.a)).Net.owner
      and y = (Net.router net (fst l.Net.b)).Net.owner in
      let key = if x <= y then (x, y) else (y, x) in
      Hashtbl.replace tbl key
        (l :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
    (Net.interdomain_links net);
  List.sort
    (fun ((a, b), _) ((c, d), _) -> compare (a, b) (c, d))
    (Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl [])

let max_asn (w : Gen.world) =
  let m = Asn.Set.max_elt (Net.asns w.Gen.net) in
  let rel_asns = B.As_rel.asns w.Gen.rels_truth in
  if Asn.Set.is_empty rel_asns then m else max m (Asn.Set.max_elt rel_asns)

(* First address above every delegated block. Every allocation the
   generator or an earlier epoch made is registered in the delegation
   file, so a fresh allocator starting here stays disjoint. *)
let next_free_addr (w : Gen.world) =
  let top =
    List.fold_left
      (fun acc (r : B.Delegation.record) ->
        max acc (Ipv4.to_int r.B.Delegation.start + r.B.Delegation.count))
      (Ipv4.to_int (Ipv4.of_octets 1 0 0 0))
      (B.Delegation.records w.Gen.delegations)
  in
  Ipv4.of_int top

let register dels ~org p =
  B.Delegation.add dels
    { B.Delegation.registry = "sim"; cc = "US"; start = Prefix.first p;
      count = Prefix.size p; date = "20170101"; status = "allocated";
      opaque_id = org }

let is_ixp_org org = String.length org >= 4 && String.sub org 0 4 = "ixp-"

(* The multi-origin prefix set (sibling MOAS, hijacks): prefix events
   must not touch these, their origin sets are scenario fixtures. *)
let multi_origin (w : Gen.world) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (p, _) -> Hashtbl.replace tbl p ()) w.Gen.moas;
  tbl

let originated_tbl (w : Gen.world) =
  let tbl = Hashtbl.create 256 in
  List.iter (fun (p, _) -> Hashtbl.replace tbl p ()) (Gen.originated w);
  tbl

(* ASes whose prefix lists events may rewrite: not the hosting org
   (its prefixes anchor MOAS fixtures and VP numbering), not Per_link
   announcers (their pin maps reference exact prefixes), not IXP
   management stubs (the registry publishes their LAN /24s). *)
let prefix_eligible (w : Gen.world) (node : Net.as_node) =
  (not (Asn.Set.mem node.Net.asn w.Gen.siblings))
  && node.Net.policy = Net.All_links
  && (not (is_ixp_org node.Net.org))
  && not (Asn.Map.mem node.Net.asn w.Gen.selective)

let home_router_of (w : Gen.world) asn p =
  match Net.home_of w.Gen.net (Prefix.first p) with
  | Some r when Asn.equal r.Net.owner asn -> Some r
  | _ -> (
    match Net.routers_of w.Gen.net asn with [] -> None | r :: _ -> Some r)

(* ------------------------------------------------------------------ *)
(* Event application. Each [apply_*] returns [None] when the world has
   no eligible site for the event; the driver then falls through to the
   next class. All return the updated world and the event record. *)

let stub_behavior =
  { Net.ttl_expired = true; ttl_src = Net.Inbound; echo = true; unreach = true;
    udp = Net.No_udp; ipid = Net.Shared_counter }

let supplier_of rels x y =
  if B.As_rel.is_provider_of rels ~provider:x ~customer:y then x
  else if B.As_rel.is_provider_of rels ~provider:y ~customer:x then y
  else min x y

let wire rng alloc (w : Gen.world) ~supplier (rs : Net.router)
    (rc : Net.router) =
  ignore rng;
  let net = w.Gen.net in
  let subnet = Addressing.alloc_block alloc 31 in
  let a_lo, a_hi = Addressing.p2p_addrs subnet in
  let l =
    Net.add_link net (Net.Private_interconnect subnet) (rs, a_lo) (rc, a_hi)
      ~weight:1.0
  in
  Net.set_home net subnet rs.Net.rid;
  let dels = register w.Gen.delegations ~org:(Net.as_node net supplier).Net.org subnet in
  (l, { w with Gen.delegations = dels })

let apply_link_add rng alloc (w : Gen.world) =
  let net = w.Gen.net in
  let candidates =
    List.filter
      (fun ((x, y), _) -> (not (per_link net x)) && not (per_link net y))
      (interdomain_pairs net)
  in
  match candidates with
  | [] -> None
  | _ ->
    let (x, y), links = Rng.pick rng candidates in
    let template = Rng.pick rng links in
    let ra = Net.router net (fst template.Net.a)
    and rb = Net.router net (fst template.Net.b) in
    let supplier = supplier_of w.Gen.rels_truth x y in
    let rs, rc = if Asn.equal ra.Net.owner supplier then (ra, rb) else (rb, ra) in
    let l, w = wire rng alloc w ~supplier rs rc in
    Some (w, Added_link { x; y; lid = l.Net.lid })

let apply_link_remove rng (w : Gen.world) =
  let net = w.Gen.net in
  let candidates =
    List.filter
      (fun ((x, y), links) ->
        List.length links >= 2
        && (not (per_link net x))
        && not (per_link net y))
      (interdomain_pairs net)
  in
  match candidates with
  | [] -> None
  | _ ->
    let (x, y), links = Rng.pick rng candidates in
    let l = Rng.pick rng links in
    Net.remove_link net l.Net.lid;
    Some (w, Removed_link { x; y; lid = l.Net.lid })

let apply_depeer rng (w : Gen.world) =
  let net = w.Gen.net in
  let rels = w.Gen.rels_truth in
  (* Only pairs that keep upstream transit on both sides stay eligible:
     each endpoint needs a surviving provider, so depeering reroutes
     instead of partitioning (Tier-1 clique edges are thereby excluded —
     Tier-1s have no providers). *)
  let candidates =
    List.filter
      (fun ((x, y), _) ->
        B.As_rel.is_peer rels x y
        && (not (per_link net x))
        && (not (per_link net y))
        && (not (Asn.Set.is_empty (B.As_rel.providers rels x)))
        && not (Asn.Set.is_empty (B.As_rel.providers rels y)))
      (interdomain_pairs net)
  in
  match candidates with
  | [] -> None
  | _ ->
    let (x, y), links = Rng.pick rng candidates in
    List.iter (fun (l : Net.link) -> Net.remove_link net l.Net.lid) links;
    Some
      ( { w with Gen.rels_truth = B.As_rel.remove_edge rels x y },
        Depeered { x; y } )

let apply_new_customer rng alloc next_asn (w : Gen.world) =
  let net = w.Gen.net in
  let asn = !next_asn in
  incr next_asn;
  let org = Printf.sprintf "org-evo-%d" asn in
  let host = Net.as_node net w.Gen.host_asn in
  let city = Rng.pick rng host.Net.cities in
  let providers =
    let transits =
      List.filter
        (fun (n : Net.as_node) -> n.Net.kind = Net.Transit)
        (Net.ases net)
    in
    if transits <> [] && Rng.bool rng ~p:0.3 then
      [ w.Gen.host_asn; (Rng.pick rng transits).Net.asn ]
    else [ w.Gen.host_asn ]
  in
  let prefix = Addressing.alloc_block alloc (20 + Rng.int rng 4) in
  let node =
    { Net.asn; kind = Net.Stub; org; cities = [ city ]; prefixes = [ prefix ];
      infra = []; announce_infra = false; filter = Net.Open;
      policy = Net.All_links }
  in
  Net.add_as net node;
  let border = Net.add_router net ~owner:asn ~city ~behavior:stub_behavior in
  Net.set_home net prefix border.Net.rid;
  let w = { w with Gen.as2org = B.As2org.add w.Gen.as2org asn org } in
  let w = { w with Gen.delegations = register w.Gen.delegations ~org prefix } in
  let w =
    List.fold_left
      (fun w pr ->
        (* Attach at an existing border of the provider (a router that
           already terminates interdomain links), preferring the
           customer's metro. *)
        let has_interdomain (r : Net.router) =
          List.exists
            (fun ((l : Net.link), _) -> l.Net.kind <> Net.Internal)
            (Net.neighbors net r.Net.rid)
        in
        let routers = Net.routers_of net pr in
        let borders = List.filter has_interdomain routers in
        let local =
          List.filter (fun (r : Net.router) -> Geo.equal_city r.Net.city city)
            borders
        in
        let rp =
          match (local, borders, routers) with
          | r :: _, _, _ -> r
          | [], _ :: _, _ -> Rng.pick rng borders
          | [], [], r :: _ -> r
          | [], [], [] -> invalid_arg "Evolve: provider has no routers"
        in
        let _, w = wire rng alloc w ~supplier:pr rp border in
        { w with
          Gen.rels_truth =
            B.As_rel.add_c2p w.Gen.rels_truth ~provider:pr ~customer:asn })
      w providers
  in
  let w =
    { w with
      Gen.primary_exit = Asn.Map.add asn (List.hd providers) w.Gen.primary_exit }
  in
  Some
    (w, Customer_joined { asn; providers = Asn.Set.of_list providers; prefix })

let apply_aggregate rng (w : Gen.world) =
  let net = w.Gen.net in
  let orig = originated_tbl w in
  let moas = multi_origin w in
  let candidates =
    List.concat_map
      (fun (node : Net.as_node) ->
        if not (prefix_eligible w node) then []
        else
          let sorted = List.sort Prefix.compare node.Net.prefixes in
          let rec pairs = function
            | p1 :: (p2 :: _ as rest) ->
              let l = Prefix.len p1 in
              let tail = pairs rest in
              if
                l = Prefix.len p2 && l >= 9
                && (not (Hashtbl.mem moas p1))
                && (not (Hashtbl.mem moas p2))
                &&
                let parent = Prefix.make (Prefix.network p1) (l - 1) in
                Prefix.equal parent (Prefix.make (Prefix.network p2) (l - 1))
                && (not (Prefix.equal p1 p2))
                && not (Hashtbl.mem orig parent)
              then
                (node, Prefix.make (Prefix.network p1) (l - 1), p1, p2) :: tail
              else tail
            | _ -> []
          in
          pairs sorted)
      (Net.ases net)
  in
  match candidates with
  | [] -> None
  | _ ->
    let node, parent, p1, p2 = Rng.pick rng candidates in
    (match home_router_of w node.Net.asn p1 with
    | None -> None
    | Some home ->
      node.Net.prefixes <-
        parent
        :: List.filter
             (fun q -> not (Prefix.equal q p1 || Prefix.equal q p2))
             node.Net.prefixes;
      Net.set_home net parent home.Net.rid;
      Some
        (w, Aggregated { asn = node.Net.asn; parent; halves = (p1, p2) }))

let apply_deaggregate rng (w : Gen.world) =
  let net = w.Gen.net in
  let orig = originated_tbl w in
  let moas = multi_origin w in
  let candidates =
    List.concat_map
      (fun (node : Net.as_node) ->
        if not (prefix_eligible w node) then []
        else
          List.filter_map
            (fun p ->
              if Prefix.len p > 23 || Hashtbl.mem moas p then None
              else
                let h1, h2 = Prefix.split p in
                if Hashtbl.mem orig h1 || Hashtbl.mem orig h2 then None
                else Some (node, p, h1, h2))
            node.Net.prefixes)
      (Net.ases net)
  in
  match candidates with
  | [] -> None
  | _ ->
    let node, parent, h1, h2 = Rng.pick rng candidates in
    (match home_router_of w node.Net.asn parent with
    | None -> None
    | Some home ->
      node.Net.prefixes <-
        h1 :: h2
        :: List.filter
             (fun q -> not (Prefix.equal q parent))
             node.Net.prefixes;
      Net.set_home net h1 home.Net.rid;
      Net.set_home net h2 home.Net.rid;
      Some
        (w, Deaggregated { asn = node.Net.asn; parent; halves = (h1, h2) }))

let apply_kind rng alloc next_asn w = function
  | Link_add -> apply_link_add rng alloc w
  | Link_remove -> apply_link_remove rng w
  | New_customer -> apply_new_customer rng alloc next_asn w
  | Depeer -> apply_depeer rng w
  | Aggregate -> apply_aggregate rng w
  | Deaggregate -> apply_deaggregate rng w

let weight_of s = function
  | Link_add -> s.w_link_add
  | Link_remove -> s.w_link_remove
  | New_customer -> s.w_new_customer
  | Depeer -> s.w_depeer
  | Aggregate -> s.w_aggregate
  | Deaggregate -> s.w_deaggregate

(* Try the drawn class first, then the remaining classes in fixed
   order: a world with no eligible site for one event kind still makes
   progress with another, and the fallback order is deterministic. *)
let apply_some rng alloc next_asn w kind =
  let rest = List.filter (fun k -> k <> kind) all_kinds in
  let rec go w = function
    | [] -> None
    | k :: rest -> (
      match apply_kind rng alloc next_asn w k with
      | Some r -> Some r
      | None -> go w rest)
  in
  go w (kind :: rest)

let advance sched ~epoch (w : Gen.world) =
  validate_schedule sched;
  if epoch < 1 then invalid_arg "Evolve.advance: epoch must be >= 1";
  (* One independent stream per epoch: epoch N's batch is a function of
     (seed, N) alone, not of how much randomness earlier epochs drew. *)
  let rng = Rng.create (sched.ev_seed lxor (epoch * 0x9E3779B9)) in
  let alloc = Addressing.create ~first:(next_free_addr w) () in
  let next_asn = ref (max_asn w + 1) in
  let t0 = float_of_int (epoch - 1) *. sched.ev_interval in
  let weighted =
    List.filter_map
      (fun k ->
        let wt = weight_of sched k in
        if wt > 0.0 then Some (wt, k) else None)
      all_kinds
  in
  let world = ref w in
  let events = ref [] in
  if weighted <> [] then
    for i = 0 to sched.ev_batch - 1 do
      let kind = Rng.weighted rng weighted in
      match apply_some rng alloc next_asn !world kind with
      | None -> ()
      | Some (w', ev) ->
        world := w';
        let at =
          t0
          +. sched.ev_interval
             *. float_of_int (i + 1)
             /. float_of_int (sched.ev_batch + 1)
        in
        events := { ev_time = at; ev } :: !events
    done;
  (!world, List.rev !events)

let force ~seed kind (w : Gen.world) =
  let rng = Rng.create seed in
  let alloc = Addressing.create ~first:(next_free_addr w) () in
  let next_asn = ref (max_asn w + 1) in
  match apply_kind rng alloc next_asn w kind with
  | None -> None
  | Some (w', ev) -> Some (w', { ev_time = 0.0; ev })
