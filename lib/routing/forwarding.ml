open Netcore
module Net = Topogen.Net

(* A forwarding plan: IGP distance tables, egress choices and
   the interdomain-link index precomputed once and never written again.
   The bulk — distance rows, egress lids — is packed into Bigarrays the
   GC never traces, indexed by small per-router row tables; each worker
   keeps its own private tables for the (cold) keys the plan does not
   cover.

   Each IGP row is its own Bigarray, sized to the router count when it
   was computed; routers past its end read as infinity. Evolution never
   changes an existing AS's internal topology, so a patched plan shares
   every old row by reference and runs Dijkstra only for new targets.

   [p_egress] encodes one int per (planned router, prefix slot):
   [-2] unplanned (fall back to the private memo), [-1] planned with no
   egress, otherwise the chosen link id. *)
type float_ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type plan = {
  p_routers : int;  (* router count of the planned world *)
  p_igp_row : int array;  (* target rid -> row index into [p_igp], or -1 *)
  p_igp : float_ba array;  (* per target row: IGP distance from each rid *)
  p_egr_row : int array;  (* rid -> row index into [p_egress], or -1 *)
  p_pfx : Prefix.t array;  (* sorted prefix slots; = Bgp snapshot slots *)
  p_egress : int_ba;  (* rows x |p_pfx| egress lids (-2 unplanned, -1 none) *)
  p_between : (Asn.t * Asn.t, Net.link list) Hashtbl.t;
}

type t = {
  net : Net.t;
  bgp : Bgp.t;
  plan : plan option;
  (* Distances to a target router from every router of the same AS,
     computed by Dijkstra from the target over internal links. *)
  igp : (int, float array) Hashtbl.t;
  (* (rid, prefix) -> chosen egress link id, or -1 for none. *)
  egress_memo : (int * Prefix.t, int) Hashtbl.t;
  (* (asn1, asn2) -> interdomain links between them. *)
  mutable between : (Asn.t * Asn.t, Net.link list) Hashtbl.t option;
}

let create ?plan net bgp =
  { net; bgp; plan; igp = Hashtbl.create 512; egress_memo = Hashtbl.create 4096;
    between = None }

let build_between net =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (l : Net.link) ->
      let oa = (Net.router net (fst l.Net.a)).Net.owner in
      let ob = (Net.router net (fst l.Net.b)).Net.owner in
      let key = if oa < ob then (oa, ob) else (ob, oa) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (l :: cur))
    (Net.interdomain_links net);
  tbl

let links_between t x y =
  let tbl =
    match t.plan with
    | Some plan -> plan.p_between
    | None -> (
      match t.between with
      | Some tbl -> tbl
      | None ->
        let tbl = build_between t.net in
        t.between <- Some tbl;
        tbl)
  in
  let key = if x < y then (x, y) else (y, x) in
  Option.value ~default:[] (Hashtbl.find_opt tbl key)

(* Dijkstra from [target] over internal links of its AS, on a binary
   heap with lazy deletion: relaxations push duplicates and stale pops
   are skipped by the [d <= dist.(x)] guard, so the final distance
   array is identical to the old set-as-priority-queue version. *)
let compute_dist net target =
  let n = Net.router_count net in
  let dist = Array.make n infinity in
  let pq =
    Heap.create (fun (d1, x1) (d2, x2) ->
        match Float.compare d1 d2 with 0 -> Int.compare x1 x2 | c -> c)
  in
  Heap.push pq (0.0, target);
  dist.(target) <- 0.0;
  let rec drain () =
    match Heap.pop_opt pq with
    | None -> ()
    | Some (d, x) ->
      if d <= dist.(x) then
        List.iter
          (fun ((l : Net.link), y) ->
            let nd = d +. l.Net.weight in
            if nd < dist.(y) then begin
              dist.(y) <- nd;
              Heap.push pq (nd, y)
            end)
          (Net.internal_neighbors net x);
      drain ()
  in
  drain ();
  dist

(* A planned IGP row is as long as the router count it was computed
   at; routers added since lie past its end, internally unreachable. *)
let igp_get (row : float_ba) rid =
  if rid < Bigarray.Array1.dim row then Bigarray.Array1.get row rid else infinity

(* Distance from [rid] to [target] (same AS assumed). Planned targets
   read one float out of the packed row — no allocation, no hashing;
   unplanned targets fall back to the private per-instance memo. *)
let dist_at t ~target ~rid =
  match t.plan with
  | Some plan when plan.p_igp_row.(target) >= 0 ->
    igp_get plan.p_igp.(plan.p_igp_row.(target)) rid
  | _ -> (
    let dist =
      match Hashtbl.find_opt t.igp target with
      | Some d -> d
      | None ->
        let dist = compute_dist t.net target in
        Hashtbl.replace t.igp target dist;
        dist
    in
    dist.(rid))

let igp_distance t ~from_rid ~to_rid =
  let ra = Net.router t.net from_rid and rb = Net.router t.net to_rid in
  if not (Asn.equal ra.Net.owner rb.Net.owner) then infinity
  else dist_at t ~target:to_rid ~rid:from_rid

(* Next internal hop from [rid] toward [target]: among the neighbors
   whose (link weight + distance) lies within the ECMP tolerance of the
   minimum, hash the flow identifier the way routers hash five-tuples.
   Flow 0 deterministically takes the canonical (lowest link id) path,
   which is what Paris traceroute's fixed flow identifier guarantees;
   classic traceroute varies the flow per probe and wobbles across
   equal-cost paths. *)
let ecmp_tolerance = 1.02

let internal_next_hop ?(flow = 0) t rid target =
  if rid = target then None
  else begin
    let candidates = ref [] in
    let best = ref infinity in
    List.iter
      (fun ((l : Net.link), y) ->
        let dy = dist_at t ~target ~rid:y in
        if dy < infinity then begin
          let d = l.Net.weight +. dy in
          if d < !best then best := d;
          candidates := (d, l) :: !candidates
        end)
      (Net.internal_neighbors t.net rid);
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

(* Candidate egress links for [rid]'s AS toward prefix [p]: links to any
   best next-hop AS, honouring per-link selective announcement when the
   neighbor is the origin. *)
let egress_candidates t asn p (route : Bgp.route) =
  Asn.Set.fold
    (fun n acc ->
      let ls = links_between t asn n in
      let ls =
        if Bgp.is_origin t.bgp n p then
          match Bgp.allowed_links t.bgp ~origin:n ~p with
          | None -> ls
          | Some lids -> (
            match List.filter (fun (l : Net.link) -> List.mem l.Net.lid lids) ls with
            | [] -> ls  (* no pinned link toward this neighbor: unrestricted *)
            | pinned -> pinned)
        else ls
      in
      List.rev_append ls acc)
    route.Bgp.nexthops []

(* The single scoring path behind the lazy memo, [freeze] and [patch]:
   hot-potato (IGP-nearest near-side router) among the [candidates] of
   [rid]'s AS [asn], ties broken on lowest link id, encoded as the
   chosen lid or -1 for none. Candidates depend only on the AS and the
   prefix, so the plan builders compute them once for all of an AS's
   routers. *)
let egress_among t rid asn candidates =
  let best_d = ref infinity and best = ref (-1) in
  List.iter
    (fun (l : Net.link) ->
      let ra = fst l.Net.a in
      let near =
        if Asn.equal (Net.router t.net ra).Net.owner asn then ra else fst l.Net.b
      in
      let d = igp_distance t ~from_rid:rid ~to_rid:near in
      if d < !best_d || (d = !best_d && d < infinity && l.Net.lid < !best) then begin
        best_d := d;
        best := l.Net.lid
      end)
    candidates;
  !best

let egress_lid t rid p route =
  let asn = (Net.router t.net rid).Net.owner in
  egress_among t rid asn (egress_candidates t asn p route)

(* [pslot] is [p]'s interned snapshot slot, as handed out by
   [Bgp.lookup_slot]; the plan's prefix columns are the snapshot's
   slots, so it indexes the egress row directly. *)
let choose_egress t rid p ~pslot (route : Bgp.route) =
  let planned =
    match t.plan with
    | Some plan when plan.p_egr_row.(rid) >= 0 ->
      Bigarray.Array1.get plan.p_egress
        ((plan.p_egr_row.(rid) * Array.length plan.p_pfx) + pslot)
    | _ -> -2
  in
  let lid =
    if planned > -2 then planned
    else
      match Hashtbl.find_opt t.egress_memo (rid, p) with
      | Some lid -> lid
      | None ->
        let lid = egress_lid t rid p route in
        Hashtbl.replace t.egress_memo (rid, p) lid;
        lid
  in
  if lid < 0 then None else Some (Net.link t.net lid)

(* IGP rows for every interdomain-link endpoint: these routers are the
   targets of all egress scoring and of the internal walks toward an
   egress, and they are identical for every VP. Home-router targets stay
   lazy in each worker's private table. Returns the rid -> row table and
   the row -> rid targets. *)
let igp_targets net =
  let p_igp_row = Array.make (Net.router_count net) (-1) in
  let targets = ref [] and rows = ref 0 in
  List.iter
    (fun (l : Net.link) ->
      List.iter
        (fun rid ->
          if p_igp_row.(rid) < 0 then begin
            p_igp_row.(rid) <- !rows;
            incr rows;
            targets := rid :: !targets
          end)
        [ fst l.Net.a; fst l.Net.b ])
    (Net.interdomain_links net);
  (p_igp_row, Array.of_list (List.rev !targets))

let igp_row net rid =
  let dist = compute_dist net rid in
  let row =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (Array.length dist)
  in
  Array.iteri (Bigarray.Array1.set row) dist;
  row

(* Egress rows for the hot ASes (the VP-owning ones): every probe starts
   there, so these (rid, prefix slot) pairs recur in every worker.
   Prefix columns follow [Bgp.prefixes] order, which is the snapshot's
   slot order, so [Bgp.lookup_slot] slots index directly. The table is
   filled with [-2] so unwritten cells stay on the lazy path. *)
let egress_table t egress_for ~np =
  let p_egr_row = Array.make (Net.router_count t.net) (-1) in
  let rows = ref 0 in
  Asn.Set.iter
    (fun asn ->
      List.iter
        (fun (r : Net.router) ->
          if p_egr_row.(r.Net.rid) < 0 then begin
            p_egr_row.(r.Net.rid) <- !rows;
            incr rows
          end)
        (Net.routers_of t.net asn))
    egress_for;
  let p_egress = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (!rows * np) in
  Bigarray.Array1.fill p_egress (-2);
  (p_egr_row, p_egress)

let freeze ?(egress_for = Asn.Set.empty) t =
  Obs.Metrics.incr "routing.plan.builds";
  let p_igp_row, targets = igp_targets t.net in
  let p_igp = Array.map (igp_row t.net) targets in
  let p_pfx = Array.of_list (Bgp.prefixes t.bgp) in
  let np = Array.length p_pfx in
  let p_egr_row, p_egress = egress_table t egress_for ~np in
  let plan =
    { p_routers = Net.router_count t.net; p_igp_row; p_igp; p_egr_row; p_pfx;
      p_egress; p_between = build_between t.net }
  in
  (* Scoring runs against the plan itself: the IGP rows above are
     exactly the distances egress selection needs, and the [-2] fill
     keeps unwritten egress cells on the lazy path during the fill. *)
  let scored = { t with plan = Some plan } in
  Asn.Set.iter
    (fun asn ->
      (* Slot hoisting: intern the ASN once per AS, and decode each
         prefix's route and gather its candidate links once for all of
         the AS's routers. *)
      let aslot = Bgp.Snapshot.asn_slot t.bgp asn in
      let routers = Net.routers_of t.net asn in
      Array.iteri
        (fun pi p ->
          Option.iter
            (fun route ->
              let candidates = egress_candidates scored asn p route in
              List.iter
                (fun (r : Net.router) ->
                  Bigarray.Array1.set p_egress
                    ((p_egr_row.(r.Net.rid) * np) + pi)
                    (egress_among scored r.Net.rid asn candidates))
                routers)
            (Bgp.Snapshot.route_at t.bgp ~pslot:pi ~aslot))
        p_pfx)
    egress_for;
  plan

(* ------------------------------------------------------------------ *)
(* Incremental plan patch, the forwarding side of [Bgp.refreeze].      *)

(* [patch ?egress_for t ~old ~churn ~dirty] rebuilds only the plan
   state reachable from dirty inputs. [t] must be a fresh instance over
   the post-churn net and the patched snapshot; [old] is the pre-churn
   plan; [dirty] the BGP-dirty prefixes
   ([Bgp.refreeze_stats.rf_dirty_prefixes]).

   What can be reused, and why:
   - IGP distance rows: evolution never touches the *internal* topology
     of a pre-churn AS (new routers belong to new ASes, link events are
     interdomain), so an old target's distance row is still exact and
     is shared by reference; routers added since lie past its end and
     read as infinity. Only endpoints that gained a row (new
     interconnects) run Dijkstra.
   - Egress cells: a cell (router of AS a, prefix p) is recomputed when
     p is BGP-dirty (its route may differ), when p left/entered the
     prefix set, or when some next hop z of a's route has (a, z) in the
     changed-interconnect set (candidate links differ with the route
     intact). The test reads the packed route word and its next-hop
     segment; only recomputed cells decode the route. Everything else
     scores identically, so the old lid is copied. *)
let patch ?(egress_for = Asn.Set.empty) t ~old ~(churn : Bgp.churn) ~dirty =
  Obs.Metrics.incr "routing.plan.patches";
  let snap = t.bgp in
  let module S = Bgp.Snapshot in
  let old_routers = old.p_routers in
  let p_igp_row, targets = igp_targets t.net in
  let p_igp =
    Array.map
      (fun rid ->
        let orow = if rid < old_routers then old.p_igp_row.(rid) else -1 in
        if orow >= 0 then old.p_igp.(orow) else igp_row t.net rid)
      targets
  in
  let p_pfx = Array.of_list (Bgp.prefixes t.bgp) in
  let np = Array.length p_pfx in
  let np_old = Array.length old.p_pfx in
  let new2old = Array.make (max 1 np) (-1) in
  let i = ref 0 and j = ref 0 in
  while !i < np_old && !j < np do
    match Prefix.compare old.p_pfx.(!i) p_pfx.(!j) with
    | 0 ->
      new2old.(!j) <- !i;
      incr i;
      incr j
    | c when c < 0 -> incr i
    | _ -> incr j
  done;
  let dirty_col = Array.make (max 1 np) false in
  List.iter
    (fun p ->
      let s = S.prefix_slot snap p in
      if s >= 0 then dirty_col.(s) <- true)
    dirty;
  for c = 0 to np - 1 do
    if new2old.(c) < 0 then dirty_col.(c) <- true
  done;
  (* ASes whose physical interconnects changed with routing intact
     (parallel-link add/remove, plus new-stub attachments for safety),
     as next-hop slots per AS. *)
  let changed_with = Asn.Tbl.create 8 in
  let note (x, y) =
    let add a b =
      let sb = S.asn_slot snap b in
      if sb >= 0 then
        Asn.Tbl.replace changed_with a
          (sb :: Option.value ~default:[] (Asn.Tbl.find_opt changed_with a))
    in
    add x y;
    add y x
  in
  List.iter note churn.Bgp.ch_links_changed;
  List.iter
    (fun (c, provs) -> Asn.Set.iter (fun pr -> note (c, pr)) provs)
    churn.Bgp.ch_new_stubs;
  let p_egr_row, p_egress = egress_table t egress_for ~np in
  let plan =
    { p_routers = Net.router_count t.net; p_igp_row; p_igp; p_egr_row; p_pfx;
      p_egress; p_between = build_between t.net }
  in
  let scored = { t with plan = Some plan } in
  let patched_cells = ref 0 in
  Asn.Set.iter
    (fun asn ->
      let aslot = S.asn_slot snap asn in
      let affected = Option.value ~default:[] (Asn.Tbl.find_opt changed_with asn) in
      let rec hits w k =
        k < S.word_nexthop_count w
        && (List.mem (S.nexthop_slot snap w k) affected || hits w (k + 1))
      in
      let rids =
        Array.of_list
          (List.map (fun (r : Net.router) -> r.Net.rid) (Net.routers_of t.net asn))
      in
      let orows =
        Array.map (fun rid -> if rid < old_routers then old.p_egr_row.(rid) else -1) rids
      in
      (* Loops, not closures, so a copied cell allocates nothing. *)
      for pi = 0 to np - 1 do
        let w = S.word snap ~pslot:pi ~aslot in
        if w <> 0 then begin
          let clean = (not dirty_col.(pi)) && not (hits w 0) in
          let candidates = ref None in
          for i = 0 to Array.length rids - 1 do
            let v =
              if clean && orows.(i) >= 0 then
                Bigarray.Array1.get old.p_egress ((orows.(i) * np_old) + new2old.(pi))
              else begin
                incr patched_cells;
                let c =
                  match !candidates with
                  | Some c -> c
                  | None ->
                    let c =
                      egress_candidates scored asn p_pfx.(pi)
                        (Option.get (S.route_at snap ~pslot:pi ~aslot))
                    in
                    candidates := Some c;
                    c
                in
                egress_among scored rids.(i) asn c
              end
            in
            Bigarray.Array1.set p_egress ((p_egr_row.(rids.(i)) * np) + pi) v
          done
        end
      done)
    egress_for;
  Obs.Metrics.add "routing.plan.patched_cells" !patched_cells;
  plan

(* Semantic plan equality, the forwarding-side oracle of the churn
   tests: a scratch freeze of the post-churn world must agree with the
   patched plan on every distance row, every egress cell, and the
   interconnect index. Row *assignment* is compared semantically (same
   routers planned), contents exactly (both sides derive from the same
   deterministic Dijkstra). *)
let plan_equal ~scratch ~patched =
  let fail fmt = Printf.ksprintf Result.error fmt in
  let s = scratch and q = patched in
  if s.p_routers <> q.p_routers then
    fail "router counts differ: %d vs %d" s.p_routers q.p_routers
  else if Array.length s.p_pfx <> Array.length q.p_pfx then
    fail "prefix counts differ: %d vs %d" (Array.length s.p_pfx)
      (Array.length q.p_pfx)
  else begin
    let exception Mismatch of string in
    let failm fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt in
    try
      Array.iteri
        (fun i p ->
          if not (Prefix.equal p q.p_pfx.(i)) then
            failm "prefix slot %d differs: %s vs %s" i (Prefix.to_string p)
              (Prefix.to_string q.p_pfx.(i)))
        s.p_pfx;
      for rid = 0 to s.p_routers - 1 do
        (match (s.p_igp_row.(rid) >= 0, q.p_igp_row.(rid) >= 0) with
        | true, false | false, true ->
          failm "igp row presence differs for router %d" rid
        | false, false -> ()
        | true, true ->
          let sr = s.p_igp.(s.p_igp_row.(rid)) and qr = q.p_igp.(q.p_igp_row.(rid)) in
          for i = 0 to s.p_routers - 1 do
            let a = igp_get sr i and b = igp_get qr i in
            if not (Float.equal a b) then
              failm "igp distance to %d from %d differs: %g vs %g" rid i a b
          done);
        match (s.p_egr_row.(rid) >= 0, q.p_egr_row.(rid) >= 0) with
        | true, false | false, true ->
          failm "egress row presence differs for router %d" rid
        | false, false -> ()
        | true, true ->
          let np = Array.length s.p_pfx in
          let sb = s.p_egr_row.(rid) * np and qb = q.p_egr_row.(rid) * np in
          for c = 0 to np - 1 do
            let a = Bigarray.Array1.get s.p_egress (sb + c)
            and b = Bigarray.Array1.get q.p_egress (qb + c) in
            if a <> b then
              failm "egress for router %d prefix %s differs: %d vs %d" rid
                (Prefix.to_string s.p_pfx.(c))
                a b
          done
      done;
      let lids tbl key =
        List.sort Int.compare
          (List.map
             (fun (l : Net.link) -> l.Net.lid)
             (Option.value ~default:[] (Hashtbl.find_opt tbl key)))
      in
      Hashtbl.iter
        (fun key _ ->
          if lids s.p_between key <> lids q.p_between key then
            failm "interconnect index differs for (AS%d, AS%d)" (fst key)
              (snd key))
        s.p_between;
      if Hashtbl.length s.p_between <> Hashtbl.length q.p_between then
        failm "interconnect index sizes differ: %d vs %d"
          (Hashtbl.length s.p_between)
          (Hashtbl.length q.p_between);
      Ok ()
    with Mismatch m -> Error m
  end

type hop = Deliver | Sink | Forward of Net.link | Unreachable

let local_iface r addr =
  List.exists (fun (i : Net.iface) -> Ipv4.equal i.Net.addr addr) r.Net.ifaces
  ||
  match r.Net.canonical with
  | Some c -> Ipv4.equal c addr
  | None -> false

let next_hop ?(flow = 0) t ~rid ~dst =
  let r = Net.router t.net rid in
  if local_iface r dst then Deliver
  else
    match Net.home_of t.net dst with
    | Some home when Asn.equal home.Net.owner r.Net.owner ->
      if home.Net.rid = rid then
        (* Connected-subnet delivery: the address may live on the far
           side of one of this router's links. *)
        match
          List.find_opt
            (fun ((l : Net.link), _) ->
              let far = if fst l.Net.a = rid then l.Net.b else l.Net.a in
              Ipv4.equal (snd far) dst)
            (Net.neighbors t.net rid)
        with
        | Some (l, _) -> Forward l
        | None -> Sink
      else (
        match internal_next_hop ~flow t rid home.Net.rid with
        | Some l -> Forward l
        | None -> Unreachable)
    | _ -> (
      match Bgp.lookup_slot t.bgp r.Net.owner dst with
      | None | Some (_, _, None) -> Unreachable
      | Some (p, pslot, Some route) -> (
        match choose_egress t rid p ~pslot route with
        | None -> Unreachable
        | Some l ->
          let near =
            let ra = fst l.Net.a in
            if Asn.equal (Net.router t.net ra).Net.owner r.Net.owner then ra
            else fst l.Net.b
          in
          if near = rid then Forward l
          else (
            match internal_next_hop ~flow t rid near with
            | Some il -> Forward il
            | None -> Unreachable)))

let egress_link t ~rid ~dst =
  let r = Net.router t.net rid in
  match Net.home_of t.net dst with
  | Some home when Asn.equal home.Net.owner r.Net.owner -> None
  | _ -> (
    match Bgp.lookup_slot t.bgp r.Net.owner dst with
    | None | Some (_, _, None) -> None
    | Some (p, pslot, Some route) -> choose_egress t rid p ~pslot route)

type step = { rid : int; in_link : Net.link option }

let path ?(flow = 0) t ~src_rid ~dst ?(max_hops = 64) () =
  let rec walk rid hops acc =
    if hops >= max_hops then List.rev acc
    else
      match next_hop ~flow t ~rid ~dst with
      | Deliver | Sink | Unreachable -> List.rev acc
      | Forward l ->
        let next, _ = Net.peer_of t.net l rid in
        walk next (hops + 1) ({ rid = next; in_link = Some l } :: acc)
  in
  walk src_rid 0 []

let first_link_iface t ~rid ~dst =
  match next_hop t ~rid ~dst with
  | Forward l ->
    let addr = if fst l.Net.a = rid then snd l.Net.a else snd l.Net.b in
    Some addr
  | Deliver | Sink | Unreachable -> None

let reply_iface t ~rid ~reply_to = first_link_iface t ~rid ~dst:reply_to
let forward_iface t ~rid ~dst = first_link_iface t ~rid ~dst
