open Netcore
module Net = Topogen.Net
module Gen = Topogen.Gen
module Fwd = Routing.Forwarding

type icmp_kind = Ttl_expired | Echo_reply | Dest_unreach
type reply = { src : Ipv4.t; kind : icmp_kind; ipid : int; responder : int }
type hop = { ttl : int; reply : reply option }

type terminal = Delivered | Sunk | Dropped

type fpath = { steps : Fwd.step array; term : terminal }

(* The forward-path cache uses two generations (a "new" and an "old"
   table) instead of a wholesale [Hashtbl.reset] at capacity: inserts go
   to new; when new fills, old is discarded and new is demoted. Hot
   keys get promoted back into new on an old-generation hit, so a
   working set up to [cache_cap] entries is never thrown away, and the
   total footprint stays bounded by two generations. *)
let default_cache_cap = 30_000

type cache_stats = { hits : int; misses : int; evictions : int; entries : int }

type t = {
  w : Gen.world;
  fwd : Fwd.t;
  ipid : Ipid.t;
  pps : float;
  fault : Fault.state;
  cache_cap : int;
  mutable clock : float;
  mutable probes : int;
  mutable paths_new : (int * Ipv4.t * int, fpath) Hashtbl.t;
  mutable paths_old : (int * Ipv4.t * int, fpath) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
}

let create ?(pps = 100.0) ?fault ?(cache_cap = default_cache_cap) w fwd =
  let cfg =
    match fault with Some c -> c | None -> Fault.of_profile w
  in
  { w; fwd; ipid = Ipid.create ~seed:w.Gen.params.Gen.seed; pps;
    fault = Fault.create ~seed:w.Gen.params.Gen.seed cfg;
    cache_cap = max 1 cache_cap; clock = 0.0; probes = 0;
    paths_new = Hashtbl.create 4096; paths_old = Hashtbl.create 16;
    cache_hits = 0; cache_misses = 0; cache_evictions = 0 }

let fault_config t = Fault.config t.fault
let fault_stats t = Fault.stats t.fault

let stats t =
  { hits = t.cache_hits; misses = t.cache_misses; evictions = t.cache_evictions;
    entries = Hashtbl.length t.paths_new + Hashtbl.length t.paths_old }

let cache_insert t key p =
  if Hashtbl.length t.paths_new >= t.cache_cap then begin
    t.cache_evictions <- t.cache_evictions + Hashtbl.length t.paths_old;
    t.paths_old <- t.paths_new;
    t.paths_new <- Hashtbl.create 4096
  end;
  Hashtbl.add t.paths_new key p

let world t = t.w
let now t = t.clock
let advance t dt = t.clock <- t.clock +. dt
let pps t = t.pps
let probe_count t = t.probes

let tick t =
  t.probes <- t.probes + 1;
  t.clock <- t.clock +. (1.0 /. t.pps)

let filter_of t asn = (Net.as_node t.w.Gen.net asn).Net.filter

(* Truncate the forward path at the border of the first AS that filters
   probes at its edge: the border router itself still appears (it is the
   last hop traceroute can elicit), everything beyond is dropped. *)
let truncate_at_filters t src_rid steps =
  let rec go prev_owner acc = function
    | [] -> (List.rev acc, None)
    | (s : Fwd.step) :: rest ->
      let owner = (Net.router t.w.Gen.net s.Fwd.rid).Net.owner in
      let crossing =
        (not (Asn.equal owner prev_owner))
        &&
        match s.Fwd.in_link with
        | Some l -> l.Net.kind <> Net.Internal
        | None -> false
      in
      if crossing && filter_of t owner <> Net.Open then
        (List.rev (s :: acc), Some owner)
      else go owner (s :: acc) rest
  in
  let src_owner = (Net.router t.w.Gen.net src_rid).Net.owner in
  go src_owner [] steps

let fpath t ~src_rid ~dst ~flow =
  let key = (src_rid, dst, flow) in
  match Hashtbl.find_opt t.paths_new key with
  | Some p ->
    t.cache_hits <- t.cache_hits + 1;
    p
  | None ->
  match Hashtbl.find_opt t.paths_old key with
  | Some p ->
    t.cache_hits <- t.cache_hits + 1;
    Hashtbl.remove t.paths_old key;
    cache_insert t key p;
    p
  | None ->
    t.cache_misses <- t.cache_misses + 1;
    let raw = Fwd.path ~flow t.fwd ~src_rid ~dst () in
    let kept, filtered = truncate_at_filters t src_rid raw in
    let term =
      match filtered with
      | Some _ -> (
        (* The border may itself hold the probed address. *)
        match kept with
        | [] -> Dropped
        | _ ->
          let last = List.nth kept (List.length kept - 1) in
          let r = Net.router t.w.Gen.net last.Fwd.rid in
          if
            List.exists (fun (i : Net.iface) -> Ipv4.equal i.Net.addr dst) r.Net.ifaces
          then Delivered
          else Dropped)
      | None -> (
        let last_rid =
          match List.rev kept with
          | [] -> src_rid
          | s :: _ -> s.Fwd.rid
        in
        match Fwd.next_hop t.fwd ~rid:last_rid ~dst with
        | Fwd.Deliver -> Delivered
        | Fwd.Sink -> Sunk
        | Fwd.Forward _ | Fwd.Unreachable -> Dropped)
    in
    let p = { steps = Array.of_list kept; term } in
    cache_insert t key p;
    p

(* Source-address selection for TTL-expired and unreachable messages. *)
let select_src t (r : Net.router) (in_link : Net.link option) ~dst ~reply_to =
  let inbound () =
    match in_link with
    | Some l -> Some (if fst l.Net.a = r.Net.rid then snd l.Net.a else snd l.Net.b)
    | None -> None
  in
  let iface_toward asn =
    List.find_map
      (fun (i : Net.iface) ->
        let l = Net.link t.w.Gen.net i.Net.link in
        if l.Net.kind = Net.Internal then None
        else
          let far_rid, _ = Net.peer_of t.w.Gen.net l r.Net.rid in
          if Asn.equal (Net.router t.w.Gen.net far_rid).Net.owner asn then
            Some i.Net.addr
          else None)
      r.Net.ifaces
  in
  match r.Net.behavior.ttl_src with
  | Net.Inbound -> inbound ()
  | Net.Toward_reply -> (
    (* Default-exit behaviour: replies leave via the primary provider
       link when this router hosts one; else via the route back to the
       prober. *)
    match Asn.Map.find_opt r.Net.owner t.w.Gen.primary_exit with
    | Some exit_asn when iface_toward exit_asn <> None -> iface_toward exit_asn
    | _ -> (
      match Fwd.reply_iface t.fwd ~rid:r.Net.rid ~reply_to with
      | Some a -> Some a
      | None -> inbound ()))
  | Net.Toward_dst -> (
    match Fwd.forward_iface t.fwd ~rid:r.Net.rid ~dst with
    | Some a -> Some a
    | None -> inbound ())

let make_reply t (r : Net.router) ~src ~kind =
  { src; kind; ipid = Ipid.sample t.ipid r ~addr:src ~now:t.clock;
    responder = r.Net.rid }

let trace_probe ?(flow = 0) t ~vp ~dst ~ttl =
  tick t;
  if Fault.probe_lost t.fault then None
  else begin
    let p = fpath t ~src_rid:vp.Gen.vp_rid ~dst ~flow in
    (* Transient link failures are a time-dependent view over the cached
       pure path: the probe dies entering the first dead link, hops
       before it still answer, and the cache never sees the outage. *)
    let n, term =
      match Fault.first_failed_step t.fault ~now:t.clock p.steps with
      | None -> (Array.length p.steps, p.term)
      | Some i -> (i, Dropped)
    in
    (* Fault gates run before [make_reply] so suppressed replies consume
       no IP-ID state: a dropped reply must leave the responder's
       counter exactly where a never-sent reply would. *)
    let reply_gate r k =
      if Fault.reply_allowed t.fault ~rid:r.Net.rid ~now:t.clock then k ()
      else None
    in
    if ttl <= n then begin
      let step = p.steps.(ttl - 1) in
      let r = Net.router t.w.Gen.net step.Fwd.rid in
      if ttl = n && term = Delivered then
        (* The probe reached its destination interface: echo reply. *)
        if r.Net.behavior.echo then
          reply_gate r (fun () -> Some (make_reply t r ~src:dst ~kind:Echo_reply))
        else None
      else if not r.Net.behavior.ttl_expired then None
      else
        reply_gate r (fun () ->
            match select_src t r step.Fwd.in_link ~dst ~reply_to:vp.Gen.vp_addr with
            | Some src -> Some (make_reply t r ~src ~kind:Ttl_expired)
            | None -> None)
    end
    else
      (* Beyond the path: delivery, unreachable, or silence. *)
      match term with
      | Delivered ->
        if n = 0 then None
        else
          let r = Net.router t.w.Gen.net p.steps.(n - 1).Fwd.rid in
          if r.Net.behavior.echo then
            reply_gate r (fun () ->
                Some (make_reply t r ~src:dst ~kind:Echo_reply))
          else None
      | Sunk ->
        if n = 0 then None
        else
          let step = p.steps.(n - 1) in
          let r = Net.router t.w.Gen.net step.Fwd.rid in
          if not r.Net.behavior.unreach then None
          else
            reply_gate r (fun () ->
                match
                  select_src t r step.Fwd.in_link ~dst ~reply_to:vp.Gen.vp_addr
                with
                | Some src -> Some (make_reply t r ~src ~kind:Dest_unreach)
                | None -> None)
      | Dropped -> None
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

(* Direct-probe reachability: routers inside filtered ASes are shielded;
   border routers (those with an interdomain interface) remain exposed. *)
let direct_target t dst =
  match Net.owner_of_addr t.w.Gen.net dst with
  | None -> None
  | Some r -> (
    let node = Net.as_node t.w.Gen.net r.Net.owner in
    match node.Net.filter with
    | Net.Silent -> None
    | Net.Open -> Some r
    | Net.Firewall | Net.Echo_only ->
      let is_border =
        List.exists
          (fun (i : Net.iface) ->
            (Net.link t.w.Gen.net i.Net.link).Net.kind <> Net.Internal)
          r.Net.ifaces
      in
      if is_border then Some r else None)

let ping t ~dst =
  tick t;
  if Fault.probe_lost t.fault then None
  else
    match direct_target t dst with
    | Some r
      when r.Net.behavior.echo
           && Fault.reply_allowed t.fault ~rid:r.Net.rid ~now:t.clock ->
      Some (make_reply t r ~src:dst ~kind:Echo_reply)
    | Some _ | None -> None

let udp_probe t ~dst =
  tick t;
  if Fault.probe_lost t.fault then None
  else
    match direct_target t dst with
    | None -> None
    | Some r -> (
      match r.Net.behavior.udp with
      | Net.No_udp -> None
      | (Net.Probed_addr | Net.Canonical)
        when not (Fault.reply_allowed t.fault ~rid:r.Net.rid ~now:t.clock) ->
        None
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
