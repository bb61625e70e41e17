open Netcore
module Net = Topogen.Net
module Gen = Topogen.Gen
module Fwd = Routing.Forwarding

type icmp_kind = Ttl_expired | Echo_reply | Dest_unreach
type reply = { src : Ipv4.t; kind : icmp_kind; ipid : int; responder : int }
type hop = { ttl : int; reply : reply option }

type cache_stats = { hits : int; misses : int }

let encode_cache_stats w s =
  Store.Codec.put_varint w s.hits;
  Store.Codec.put_varint w s.misses

let decode_cache_stats r =
  let hits = Store.Codec.varint r in
  let misses = Store.Codec.varint r in
  { hits; misses }

(* The probing surface compiled to table reads. A traceroute walks its
   forward path once: the path of the current (source, destination,
   flow) lives in [path] and every later TTL of the same trace reads it.
   Facts about a router that never change under one engine — whether
   direct probes reach it, and the source of a reply that leaves by its
   primary exit — are computed on first use into per-router arrays. *)
type t = {
  w : Gen.world;
  net : Net.t;
  fwd : Fwd.t;
  ipid : Ipid.t;
  pps : float;
  fault : Fault.state;
  mutable clock : float;
  mutable probes : int;
  path : Fwd.trace;
  mutable path_src : int;  (* -1: no path yet *)
  mutable path_dst : int;
  mutable path_flow : int;
  mutable hits : int;
  mutable misses : int;
  exposure : Bytes.t;  (* per rid: '\000' unknown, '\001' shielded, '\002' exposed *)
  exit_src : int array;  (* per rid: -2 unknown, -1 none, else the address *)
  (* Per hop of [path]: the reply source of a [Toward_reply] or
     [Toward_dst] router, -1 until resolved; valid for [path]'s key and
     the reply address [hop_reply_to]. *)
  hop_src : int array;
  mutable hop_reply_to : int;
}

let create ?(pps = 100.0) ?fault w fwd =
  let cfg =
    match fault with Some c -> c | None -> Fault.of_profile w
  in
  let n = Net.router_count w.Gen.net in
  let path = Fwd.trace_buffer () in
  { w; net = w.Gen.net; fwd; ipid = Ipid.create ~seed:w.Gen.params.Gen.seed; pps;
    fault = Fault.create ~seed:w.Gen.params.Gen.seed cfg;
    clock = 0.0; probes = 0; path; path_src = -1;
    path_dst = 0; path_flow = 0; hits = 0; misses = 0;
    exposure = Bytes.make n '\000'; exit_src = Array.make n (-2);
    hop_src = Array.make (Array.length path.Fwd.rids) (-1); hop_reply_to = -1 }

let fault_config t = Fault.config t.fault
let fault_stats t = Fault.stats t.fault
let stats t = { hits = t.hits; misses = t.misses }
let world t = t.w
let now t = t.clock
let advance t dt = t.clock <- t.clock +. dt
let pps t = t.pps
let probe_count t = t.probes

let tick t =
  t.probes <- t.probes + 1;
  t.clock <- t.clock +. (1.0 /. t.pps)

(* The forward path of [t.path]'s key, walked only when the key
   changes: the walk is pure, so a re-trace recomputes an equal path. *)
let load_path t ~src_rid ~dst ~flow =
  let d = Ipv4.to_int dst in
  if t.path_src = src_rid && t.path_dst = d && t.path_flow = flow then
    t.hits <- t.hits + 1
  else begin
    t.misses <- t.misses + 1;
    t.path_src <- -1;
    Array.fill t.hop_src 0 (Array.length t.hop_src) (-1);
    Fwd.trace ~flow t.fwd t.path ~src_rid ~dst;
    t.path_src <- src_rid;
    t.path_dst <- d;
    t.path_flow <- flow
  end

let is_border net (r : Net.router) =
  List.exists
    (fun (i : Net.iface) -> (Net.link net i.Net.link).Net.kind <> Net.Internal)
    r.Net.ifaces

(* Direct-probe reachability: routers inside filtered ASes are shielded;
   border routers (those with an interdomain interface) remain exposed. *)
let exposed t (r : Net.router) =
  match Bytes.get t.exposure r.Net.rid with
  | '\001' -> false
  | '\002' -> true
  | _ ->
    let e =
      match (Net.as_node t.net r.Net.owner).Net.filter with
      | Net.Silent -> false
      | Net.Open -> true
      | Net.Firewall | Net.Echo_only -> is_border t.net r
    in
    Bytes.set t.exposure r.Net.rid (if e then '\002' else '\001');
    e

(* The interface of [r] facing its AS's primary provider, or -1: the
   default-exit source of a [Toward_reply] router. *)
let exit_src t (r : Net.router) =
  let rid = r.Net.rid in
  if t.exit_src.(rid) = -2 then
    t.exit_src.(rid) <-
      (match Asn.Map.find_opt r.Net.owner t.w.Gen.primary_exit with
      | None -> -1
      | Some asn -> (
        let toward (i : Net.iface) =
          let l = Net.link t.net i.Net.link in
          l.Net.kind <> Net.Internal
          && Asn.equal (Net.router t.net (fst (Net.peer_of t.net l rid))).Net.owner asn
        in
        match List.find_opt toward r.Net.ifaces with
        | Some i -> Ipv4.to_int i.Net.addr
        | None -> -1));
  t.exit_src.(rid)

(* The address of [r]'s end of link [lid]. *)
let inbound t (r : Net.router) lid =
  let l = Net.link t.net lid in
  if fst l.Net.a = r.Net.rid then snd l.Net.a else snd l.Net.b

(* Source-address selection for TTL-expired and unreachable messages
   from [r], which the probe entered over link [in_lid]. *)
let resolve_src t (r : Net.router) ~in_lid ~dst ~reply_to =
  match r.Net.behavior.ttl_src with
  | Net.Inbound -> inbound t r in_lid
  | Net.Toward_reply -> (
    (* Default-exit behaviour: replies leave via the primary provider
       link when this router hosts one; else via the route back to the
       prober. *)
    let e = exit_src t r in
    if e >= 0 then Ipv4.of_int e
    else
      match Fwd.reply_iface t.fwd ~rid:r.Net.rid ~reply_to with
      | Some a -> a
      | None -> inbound t r in_lid)
  | Net.Toward_dst -> (
    match Fwd.forward_iface t.fwd ~rid:r.Net.rid ~dst with
    | Some a -> a
    | None -> inbound t r in_lid)

(* [resolve_src] for the router at [hop] of the current path. A router
   that answers from its route toward the destination or the prober is
   resolved once per hop of a trace: within one path the answer
   depends only on (router, destination) or (router, reply address). *)
let select_src t (r : Net.router) ~hop ~in_lid ~dst ~reply_to =
  match r.Net.behavior.ttl_src with
  | Net.Inbound -> inbound t r in_lid
  | Net.Toward_reply | Net.Toward_dst ->
    if t.hop_reply_to <> Ipv4.to_int reply_to then begin
      Array.fill t.hop_src 0 (Array.length t.hop_src) (-1);
      t.hop_reply_to <- Ipv4.to_int reply_to
    end;
    if t.hop_src.(hop) < 0 then
      t.hop_src.(hop) <- Ipv4.to_int (resolve_src t r ~in_lid ~dst ~reply_to);
    Ipv4.of_int t.hop_src.(hop)

(* Fault gates run before [make_reply] so suppressed replies consume no
   IP-ID state: a dropped reply must leave the responder's counter
   exactly where a never-sent reply would. *)
let gate t (r : Net.router) = Fault.reply_allowed t.fault ~rid:r.Net.rid ~now:t.clock

let make_reply t (r : Net.router) ~src ~kind =
  { src; kind; ipid = Ipid.sample t.ipid r ~addr:src ~now:t.clock;
    responder = r.Net.rid }

let trace_probe ?(flow = 0) t ~vp ~dst ~ttl =
  tick t;
  if Fault.probe_lost t.fault then None
  else begin
    load_path t ~src_rid:vp.Gen.vp_rid ~dst ~flow;
    let p = t.path in
    (* Transient link failures are a time-dependent view over the pure
       path: the probe dies entering the first dead link, hops before it
       still answer, and the path itself never sees the outage. *)
    let failed =
      match Fault.first_failed_step t.fault ~now:t.clock ~lids:p.Fwd.lids ~hops:p.Fwd.hops with
      | None -> -1
      | Some i -> i
    in
    let n = if failed < 0 then p.Fwd.hops else failed in
    let term = if failed < 0 then p.Fwd.term else Fwd.Dropped in
    if ttl <= n then begin
      let r = Net.router t.net p.Fwd.rids.(ttl - 1) in
      if ttl = n && term = Fwd.Delivered then
        (* The probe reached its destination interface: echo reply. *)
        if r.Net.behavior.echo && gate t r then
          Some (make_reply t r ~src:dst ~kind:Echo_reply)
        else None
      else if r.Net.behavior.ttl_expired && gate t r then
        let src =
          select_src t r ~hop:(ttl - 1) ~in_lid:p.Fwd.lids.(ttl - 1) ~dst
            ~reply_to:vp.Gen.vp_addr
        in
        Some (make_reply t r ~src ~kind:Ttl_expired)
      else None
    end
    else if n = 0 then None
    else
      (* Beyond the path: delivery, unreachable, or silence. *)
      let r = Net.router t.net p.Fwd.rids.(n - 1) in
      match term with
      | Fwd.Delivered ->
        if r.Net.behavior.echo && gate t r then
          Some (make_reply t r ~src:dst ~kind:Echo_reply)
        else None
      | Fwd.Sunk ->
        if r.Net.behavior.unreach && gate t r then
          let src =
            select_src t r ~hop:(n - 1) ~in_lid:p.Fwd.lids.(n - 1) ~dst
              ~reply_to:vp.Gen.vp_addr
          in
          Some (make_reply t r ~src ~kind:Dest_unreach)
        else None
      | Fwd.Dropped -> None
  end

let traceroute ?(paris = true) t ~vp ~dst ?(max_ttl = 32) ?(gap_limit = 5) () =
  let rec go ttl gaps acc =
    if ttl > max_ttl || gaps >= gap_limit then List.rev acc
    else
      (* Paris keeps the flow identifier constant so every probe of one
         trace follows one path; classic traceroute's varying ports make
         each TTL a fresh flow, wobbling across load-balanced paths. *)
      let flow = if paris then 0 else ttl in
      let reply = trace_probe ~flow t ~vp ~dst ~ttl in
      let acc = { ttl; reply } :: acc in
      match reply with
      | Some { kind = Echo_reply | Dest_unreach; _ } -> List.rev acc
      | Some { kind = Ttl_expired; _ } -> go (ttl + 1) 0 acc
      | None -> go (ttl + 1) (gaps + 1) acc
  in
  go 1 0 []

let ping t ~dst =
  tick t;
  if Fault.probe_lost t.fault then None
  else
    match Net.owner_of_addr t.net dst with
    | Some r when exposed t r && r.Net.behavior.echo && gate t r ->
      Some (make_reply t r ~src:dst ~kind:Echo_reply)
    | Some _ | None -> None

let udp_probe t ~dst =
  tick t;
  if Fault.probe_lost t.fault then None
  else
    match Net.owner_of_addr t.net dst with
    | Some r when exposed t r -> (
      match r.Net.behavior.udp with
      | Net.No_udp -> None
      | (Net.Probed_addr | Net.Canonical) when not (gate t r) -> None
      | Net.Probed_addr -> Some (make_reply t r ~src:dst ~kind:Dest_unreach)
      | Net.Canonical ->
        let src =
          match r.Net.canonical with
          | Some c -> c
          | None -> (
            match r.Net.ifaces with
            | i :: _ -> i.Net.addr
            | [] -> dst)
        in
        Some (make_reply t r ~src ~kind:Dest_unreach))
    | Some _ | None -> None
