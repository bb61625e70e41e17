(* Reference model of the probing engine: the engine as it was before
   the prober was compiled to table walks, kept for the property that
   checks the compiled engine against it. It is deliberately naive:

   - the forward path is walked one [next_hop] at a time, and every hop
     re-resolves the destination (home router, longest-match route) and
     re-sorts its equal-cost candidates;
   - the path is truncated at the first filtered border afterwards, and
     its terminal comes from one more [next_hop];
   - direct-probe exposure, the primary-exit reply source and IP-ID
     counters (keyed by an (rid, address) tuple) are recomputed or
     looked up per probe.

   It reads only Forwarding's public pieces: [egress_link] (hot-potato
   egress, the plan's answer) and [igp_distance]. *)

open Netcore
module Net = Topogen.Net
module Gen = Topogen.Gen
module Fwd = Routing.Forwarding
module Fault = Probesim.Fault
module Engine = Probesim.Engine

(* ---- forwarding, one hop at a time ---- *)

type hop = Deliver | Sink | Forward of Net.link | Unreachable

let ecmp_tolerance = 1.02

let internal_neighbors net rid =
  List.filter (fun ((l : Net.link), _) -> l.Net.kind = Net.Internal) (Net.neighbors net rid)

let internal_next_hop ~flow fwd net rid target =
  if rid = target then None
  else begin
    let candidates = ref [] in
    let best = ref infinity in
    List.iter
      (fun ((l : Net.link), y) ->
        let dy = Fwd.igp_distance fwd ~from_rid:y ~to_rid:target in
        if dy < infinity then begin
          let d = l.Net.weight +. dy in
          if d < !best then best := d;
          candidates := (d, l) :: !candidates
        end)
      (internal_neighbors net rid);
    let eligible =
      List.filter (fun (d, _) -> d <= !best *. ecmp_tolerance) !candidates
      |> List.sort (fun (d1, (l1 : Net.link)) (d2, l2) ->
             match Float.compare d1 d2 with
             | 0 -> Int.compare l1.Net.lid l2.Net.lid
             | c -> c)
      |> List.map snd
    in
    match eligible with
    | [] -> None
    | [ l ] -> Some l
    | ls ->
      if flow = 0 then Some (List.hd ls)
      else
        let h = Hashtbl.hash (flow, rid, target) in
        Some (List.nth ls (h mod List.length ls))
  end

let local_iface (r : Net.router) addr =
  List.exists (fun (i : Net.iface) -> Ipv4.equal i.Net.addr addr) r.Net.ifaces
  ||
  match r.Net.canonical with
  | Some c -> Ipv4.equal c addr
  | None -> false

let next_hop ?(flow = 0) fwd net ~rid ~dst =
  let r = Net.router net rid in
  if local_iface r dst then Deliver
  else
    let internal target =
      match internal_next_hop ~flow fwd net rid target with
      | Some l -> Forward l
      | None -> Unreachable
    in
    match Net.home_of net dst with
    | Some home when Asn.equal home.Net.owner r.Net.owner ->
      if home.Net.rid = rid then
        match
          List.find_opt
            (fun ((l : Net.link), _) ->
              let far = if fst l.Net.a = rid then l.Net.b else l.Net.a in
              Ipv4.equal (snd far) dst)
            (Net.neighbors net rid)
        with
        | Some (l, _) -> Forward l
        | None -> Sink
      else internal home.Net.rid
    | _ -> (
      match Fwd.egress_link fwd ~rid ~dst with
      | None -> Unreachable
      | Some l ->
        let near =
          let ra = fst l.Net.a in
          if Asn.equal (Net.router net ra).Net.owner r.Net.owner then ra
          else fst l.Net.b
        in
        if near = rid then Forward l else internal near)

let path ~flow fwd net ~src_rid ~dst =
  let rec walk rid hops acc =
    if hops >= 64 then List.rev acc
    else
      match next_hop ~flow fwd net ~rid ~dst with
      | Deliver | Sink | Unreachable -> List.rev acc
      | Forward l ->
        let next, _ = Net.peer_of net l rid in
        walk next (hops + 1) ((next, l) :: acc)
  in
  walk src_rid 0 []

let first_link_iface fwd net ~rid ~dst =
  match next_hop fwd net ~rid ~dst with
  | Forward l -> Some (if fst l.Net.a = rid then snd l.Net.a else snd l.Net.b)
  | Deliver | Sink | Unreachable -> None

(* ---- IP-ID counters keyed by (rid, address) ---- *)

type counter = { base : int; rate : float; mutable sent : int }

let fresh_counter seed key =
  let r = Rng.create (seed lxor (key * 2654435761)) in
  if Rng.bool r ~p:0.35 then
    { base = Rng.int r 1500; rate = 0.3 +. Rng.float r *. 2.0; sent = 0 }
  else { base = Rng.int r 65536; rate = 2.0 +. Rng.float r *. 300.0; sent = 0 }

type ipid = {
  seed : int;
  shared : (int, counter) Hashtbl.t;
  per_iface : (int * Ipv4.t, counter) Hashtbl.t;
  rng : Rng.t;
}

let ipid_sample st (router : Net.router) ~addr ~now =
  let counter tbl key seed_key =
    match Hashtbl.find_opt tbl key with
    | Some c -> c
    | None ->
      let c = fresh_counter st.seed seed_key in
      Hashtbl.add tbl key c;
      c
  in
  let bump c =
    c.sent <- c.sent + 1;
    (c.base + c.sent + int_of_float (c.rate *. now)) land 0xFFFF
  in
  match router.Net.behavior.ipid with
  | Net.Random_id -> Rng.int st.rng 65536
  | Net.Zero_id -> 0
  | Net.Shared_counter -> bump (counter st.shared router.Net.rid router.Net.rid)
  | Net.Per_iface ->
    bump
      (counter st.per_iface (router.Net.rid, addr)
         (router.Net.rid lxor (Ipv4.to_int addr * 31)))

(* ---- the engine ---- *)

type terminal = Delivered | Sunk | Dropped

type t = {
  w : Gen.world;
  net : Net.t;
  fwd : Fwd.t;
  ipid : ipid;
  pps : float;
  fault : Fault.state;
  mutable clock : float;
  paths : (int * Ipv4.t * int, (int * Net.link) array * terminal) Hashtbl.t;
}

let create ?(pps = 100.0) ?fault w fwd =
  let cfg = match fault with Some c -> c | None -> Fault.of_profile w in
  let seed = w.Gen.params.Gen.seed in
  { w; net = w.Gen.net; fwd;
    ipid =
      { seed; shared = Hashtbl.create 64; per_iface = Hashtbl.create 64;
        rng = Rng.create (seed lxor 0x1b9d) };
    pps; fault = Fault.create ~seed cfg; clock = 0.0; paths = Hashtbl.create 64 }

let now t = t.clock
let advance t dt = t.clock <- t.clock +. dt
let tick t = t.clock <- t.clock +. (1.0 /. t.pps)
let filter_of t asn = (Net.as_node t.net asn).Net.filter

let truncate_at_filters t src_rid steps =
  let rec go prev_owner acc = function
    | [] -> (List.rev acc, false)
    | ((rid, (l : Net.link)) as s) :: rest ->
      let owner = (Net.router t.net rid).Net.owner in
      let crossing = (not (Asn.equal owner prev_owner)) && l.Net.kind <> Net.Internal in
      if crossing && filter_of t owner <> Net.Open then (List.rev (s :: acc), true)
      else go owner (s :: acc) rest
  in
  go (Net.router t.net src_rid).Net.owner [] steps

let fpath t ~src_rid ~dst ~flow =
  let key = (src_rid, dst, flow) in
  match Hashtbl.find_opt t.paths key with
  | Some p -> p
  | None ->
    let kept, filtered =
      truncate_at_filters t src_rid (path ~flow t.fwd t.net ~src_rid ~dst)
    in
    let term =
      if filtered then
        let last, _ = List.nth kept (List.length kept - 1) in
        let r = Net.router t.net last in
        if List.exists (fun (i : Net.iface) -> Ipv4.equal i.Net.addr dst) r.Net.ifaces
        then Delivered
        else Dropped
      else
        let last_rid = match List.rev kept with [] -> src_rid | (rid, _) :: _ -> rid in
        match next_hop t.fwd t.net ~rid:last_rid ~dst with
        | Deliver -> Delivered
        | Sink -> Sunk
        | Forward _ | Unreachable -> Dropped
    in
    let p = (Array.of_list kept, term) in
    Hashtbl.add t.paths key p;
    p

let select_src t (r : Net.router) (in_link : Net.link) ~dst ~reply_to =
  let inbound () =
    Some (if fst in_link.Net.a = r.Net.rid then snd in_link.Net.a else snd in_link.Net.b)
  in
  let iface_toward asn =
    List.find_map
      (fun (i : Net.iface) ->
        let l = Net.link t.net i.Net.link in
        if l.Net.kind = Net.Internal then None
        else
          let far_rid, _ = Net.peer_of t.net l r.Net.rid in
          if Asn.equal (Net.router t.net far_rid).Net.owner asn then Some i.Net.addr
          else None)
      r.Net.ifaces
  in
  match r.Net.behavior.ttl_src with
  | Net.Inbound -> inbound ()
  | Net.Toward_reply -> (
    match Asn.Map.find_opt r.Net.owner t.w.Gen.primary_exit with
    | Some exit_asn when iface_toward exit_asn <> None -> iface_toward exit_asn
    | _ -> (
      match first_link_iface t.fwd t.net ~rid:r.Net.rid ~dst:reply_to with
      | Some a -> Some a
      | None -> inbound ()))
  | Net.Toward_dst -> (
    match first_link_iface t.fwd t.net ~rid:r.Net.rid ~dst with
    | Some a -> Some a
    | None -> inbound ())

let make_reply t (r : Net.router) ~src ~kind =
  { Engine.src; kind; ipid = ipid_sample t.ipid r ~addr:src ~now:t.clock;
    responder = r.Net.rid }

let trace_probe ?(flow = 0) t ~(vp : Gen.vp) ~dst ~ttl =
  tick t;
  if Fault.probe_lost t.fault then None
  else begin
    let steps, term = fpath t ~src_rid:vp.Gen.vp_rid ~dst ~flow in
    let lids = Array.map (fun (_, (l : Net.link)) -> l.Net.lid) steps in
    let n, term =
      match
        Fault.first_failed_step t.fault ~now:t.clock ~lids ~hops:(Array.length steps)
      with
      | None -> (Array.length steps, term)
      | Some i -> (i, Dropped)
    in
    let reply_gate (r : Net.router) k =
      if Fault.reply_allowed t.fault ~rid:r.Net.rid ~now:t.clock then k () else None
    in
    if ttl <= n then begin
      let rid, in_link = steps.(ttl - 1) in
      let r = Net.router t.net rid in
      if ttl = n && term = Delivered then
        if r.Net.behavior.echo then
          reply_gate r (fun () -> Some (make_reply t r ~src:dst ~kind:Engine.Echo_reply))
        else None
      else if not r.Net.behavior.ttl_expired then None
      else
        reply_gate r (fun () ->
            match select_src t r in_link ~dst ~reply_to:vp.Gen.vp_addr with
            | Some src -> Some (make_reply t r ~src ~kind:Engine.Ttl_expired)
            | None -> None)
    end
    else
      match term with
      | Delivered ->
        if n = 0 then None
        else
          let r = Net.router t.net (fst steps.(n - 1)) in
          if r.Net.behavior.echo then
            reply_gate r (fun () -> Some (make_reply t r ~src:dst ~kind:Engine.Echo_reply))
          else None
      | Sunk ->
        if n = 0 then None
        else
          let rid, in_link = steps.(n - 1) in
          let r = Net.router t.net rid in
          if not r.Net.behavior.unreach then None
          else
            reply_gate r (fun () ->
                match select_src t r in_link ~dst ~reply_to:vp.Gen.vp_addr with
                | Some src -> Some (make_reply t r ~src ~kind:Engine.Dest_unreach)
                | None -> None)
      | Dropped -> None
  end

let direct_target t dst =
  match Net.owner_of_addr t.net dst with
  | None -> None
  | Some r -> (
    match filter_of t r.Net.owner with
    | Net.Silent -> None
    | Net.Open -> Some r
    | Net.Firewall | Net.Echo_only ->
      let is_border =
        List.exists
          (fun (i : Net.iface) -> (Net.link t.net i.Net.link).Net.kind <> Net.Internal)
          r.Net.ifaces
      in
      if is_border then Some r else None)

let ping t ~dst =
  tick t;
  if Fault.probe_lost t.fault then None
  else
    match direct_target t dst with
    | Some r
      when r.Net.behavior.echo && Fault.reply_allowed t.fault ~rid:r.Net.rid ~now:t.clock ->
      Some (make_reply t r ~src:dst ~kind:Engine.Echo_reply)
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
      | Net.Probed_addr -> Some (make_reply t r ~src:dst ~kind:Engine.Dest_unreach)
      | Net.Canonical ->
        let src =
          match r.Net.canonical with
          | Some c -> c
          | None -> ( match r.Net.ifaces with i :: _ -> i.Net.addr | [] -> dst)
        in
        Some (make_reply t r ~src ~kind:Engine.Dest_unreach))
