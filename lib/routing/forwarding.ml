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

(* The private per-instance distance row toward an unplanned target. *)
let memo_row t target =
  match Hashtbl.find t.igp target with
  | dist -> dist
  | exception Not_found ->
    let dist = compute_dist t.net target in
    Hashtbl.replace t.igp target dist;
    dist

(* Distance from [rid] to [target] (same AS assumed). Planned targets
   read one float out of the packed row — no allocation, no hashing;
   unplanned targets fall back to the private per-instance memo. *)
let dist_at t ~target ~rid =
  match t.plan with
  | Some plan when plan.p_igp_row.(target) >= 0 ->
    igp_get plan.p_igp.(plan.p_igp_row.(target)) rid
  | _ -> (memo_row t target).(rid)

let igp_distance t ~from_rid ~to_rid =
  let ra = Net.router t.net from_rid and rb = Net.router t.net to_rid in
  if not (Asn.equal ra.Net.owner rb.Net.owner) then infinity
  else dist_at t ~target:to_rid ~rid:from_rid

(* Next internal hop from [rid] toward [target], as a link id or -1:
   among the neighbors whose (link weight + distance) lies within the
   ECMP tolerance of the minimum, hash the flow identifier the way
   routers hash five-tuples. Flow 0 deterministically takes the
   canonical path, the least (distance, lid) neighbour, which is what
   Paris traceroute's fixed flow identifier guarantees; classic
   traceroute varies the flow per probe and wobbles across equal-cost
   paths. The distance row toward [target] is resolved once per call,
   and the flow-0 argmin allocates nothing. *)
let ecmp_tolerance = 1.02

let no_row : float_ba = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0

let internal_next_lid ~flow t rid target =
  if rid = target then -1
  else begin
    let prow = match t.plan with Some plan -> plan.p_igp_row.(target) | None -> -1 in
    let row = match t.plan with Some plan when prow >= 0 -> plan.p_igp.(prow) | _ -> no_row in
    let memo = if prow >= 0 then [||] else memo_row t target in
    let ns = ref (Net.internal_neighbors t.net rid) in
    if flow = 0 then begin
      let best_d = ref infinity and best = ref (-1) in
      while
        match !ns with
        | [] -> false
        | ((l : Net.link), y) :: rest ->
          ns := rest;
          let dy =
            if prow < 0 then memo.(y)
            else if y < Bigarray.Array1.dim row then Bigarray.Array1.unsafe_get row y
            else infinity
          in
          if dy < infinity then begin
            let d = l.Net.weight +. dy in
            if d < !best_d || (d = !best_d && l.Net.lid < !best) then begin
              best_d := d;
              best := l.Net.lid
            end
          end;
          true
      do
        ()
      done;
      !best
    end
    else begin
      let candidates = ref [] in
      let best = ref infinity in
      List.iter
        (fun ((l : Net.link), y) ->
          let dy = if prow < 0 then memo.(y) else igp_get row y in
          if dy < infinity then begin
            let d = l.Net.weight +. dy in
            if d < !best then best := d;
            candidates := (d, l) :: !candidates
          end)
        !ns;
      let eligible =
        List.filter (fun (d, _) -> d <= !best *. ecmp_tolerance) !candidates
        |> List.sort (fun (d1, (l1 : Net.link)) (d2, l2) ->
               match Float.compare d1 d2 with
               | 0 -> Int.compare l1.Net.lid l2.Net.lid
               | c -> c)
        |> List.map snd
      in
      match eligible with
      | [] -> -1
      | [ l ] -> l.Net.lid
      | ls ->
        let h = Hashtbl.hash (flow, rid, target) in
        (List.nth ls (h mod List.length ls)).Net.lid
    end
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

(* The egress lid router [rid] (of the AS at [aslot]) chooses toward
   prefix slot [pslot], or -1 for none. The plan's prefix columns are
   the snapshot's slots, so [pslot] indexes the egress row directly;
   the route is decoded only when an unplanned router misses its
   private memo. *)
let egress_at t rid ~pslot ~aslot =
  let planned =
    match t.plan with
    | Some plan when plan.p_egr_row.(rid) >= 0 ->
      Bigarray.Array1.get plan.p_egress
        ((plan.p_egr_row.(rid) * Array.length plan.p_pfx) + pslot)
    | _ -> -2
  in
  if planned > -2 then planned
  else
    let p = Bgp.Snapshot.prefix_of_slot t.bgp pslot in
    match Hashtbl.find_opt t.egress_memo (rid, p) with
    | Some lid -> lid
    | None ->
      let lid =
        match Bgp.Snapshot.route_at t.bgp ~pslot ~aslot with
        | Some route -> egress_lid t rid p route
        | None -> -1
      in
      Hashtbl.replace t.egress_memo (rid, p) lid;
      lid

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

(* ------------------------------------------------------------------ *)
(* The forwarding walk.                                                *)

type hop = Deliver | Sink | Forward of Net.link | Unreachable

(* What one walk resolves about its destination once: the home router
   ([-1] when no origin claims [addr]) and the LPM prefix slot ([-1]
   when unrouted). [word] is the route word of AS [w_owner] toward
   that slot, re-read only when the walk enters another AS ([-1] until
   the first read). *)
type dest = {
  addr : Ipv4.t;
  home : int;
  home_owner : Asn.t;
  pslot : int;
  mutable w_owner : Asn.t;
  mutable aslot : int;
  mutable word : int;
}

let dest t addr =
  let home, home_owner =
    match Net.home_of t.net addr with
    | Some h -> (h.Net.rid, h.Net.owner)
    | None -> (-1, 0)
  in
  { addr; home; home_owner; pslot = Bgp.Snapshot.lookup_pslot t.bgp addr;
    w_owner = 0; aslot = -1; word = -1 }

let rec has_iface addr = function
  | [] -> false
  | (i : Net.iface) :: rest -> Ipv4.equal i.Net.addr addr || has_iface addr rest

let local_iface (r : Net.router) addr =
  has_iface addr r.Net.ifaces
  ||
  match r.Net.canonical with
  | Some c -> Ipv4.equal c addr
  | None -> false

(* One forwarding decision, as a code: a link id (>= 0) forwards across
   that link, otherwise one of the three codes below. *)
let code_deliver = -1
let code_sink = -2
let code_unreachable = -3

(* Connected-subnet delivery at the home router: the address may live
   on the far side of one of its links. *)
let rec connected rid addr = function
  | [] -> code_sink
  | ((l : Net.link), _) :: rest ->
    let far = if fst l.Net.a = rid then l.Net.b else l.Net.a in
    if Ipv4.equal (snd far) addr then l.Net.lid else connected rid addr rest

let internal_code ~flow t rid target =
  let lid = internal_next_lid ~flow t rid target in
  if lid < 0 then code_unreachable else lid

let near_end t (l : Net.link) owner =
  let ra = fst l.Net.a in
  if Asn.equal (Net.router t.net ra).Net.owner owner then ra else fst l.Net.b

(* The route word of [owner] toward [d]'s slot, read once per AS. *)
let route_word t d owner =
  if d.word < 0 || not (Asn.equal d.w_owner owner) then begin
    d.w_owner <- owner;
    d.aslot <- Bgp.Snapshot.asn_slot t.bgp owner;
    d.word <- Bgp.Snapshot.word t.bgp ~pslot:d.pslot ~aslot:d.aslot
  end;
  d.word

(* The step function behind [next_hop] and every walk: deliver on a
   local interface; toward the home router inside its AS; else across
   the hot-potato egress of the AS's route (internally first when the
   egress lies on another router). *)
let step ~flow t d rid =
  let r = Net.router t.net rid in
  if local_iface r d.addr then code_deliver
  else if d.home >= 0 && Asn.equal d.home_owner r.Net.owner then
    if d.home = rid then connected rid d.addr (Net.neighbors t.net rid)
    else internal_code ~flow t rid d.home
  else if route_word t d r.Net.owner = 0 then code_unreachable
  else
    let lid = egress_at t rid ~pslot:d.pslot ~aslot:d.aslot in
    if lid < 0 then code_unreachable
    else
      let near = near_end t (Net.link t.net lid) r.Net.owner in
      if near = rid then lid else internal_code ~flow t rid near

let next_hop ?(flow = 0) t ~rid ~dst =
  match step ~flow t (dest t dst) rid with
  | c when c >= 0 -> Forward (Net.link t.net c)
  | c when c = code_deliver -> Deliver
  | c when c = code_sink -> Sink
  | _ -> Unreachable

let egress_link t ~rid ~dst =
  let d = dest t dst in
  let owner = (Net.router t.net rid).Net.owner in
  if d.home >= 0 && Asn.equal d.home_owner owner then None
  else if route_word t d owner = 0 then None
  else
    let lid = egress_at t rid ~pslot:d.pslot ~aslot:d.aslot in
    if lid < 0 then None else Some (Net.link t.net lid)

type step = { rid : int; in_link : Net.link option }
type terminal = Delivered | Sunk | Dropped

let edge_filtered t asn =
  match (Net.as_node t.net asn).Net.filter with
  | Net.Open -> false
  | Net.Firewall | Net.Echo_only | Net.Silent -> true

(* The one walk behind [path] and [trace]: the destination is resolved
   once, each step reports (router, in-link id) to [emit], and the
   terminal is the code of the step that ended the walk. With
   [filters], the walk ends at the first border of an AS that filters
   probes at its edge: the border is the last step, and the probe is
   delivered only when the border itself holds [dst]. *)
let walk ~flow ~max_hops ~filters t ~src_rid ~dst emit =
  let d = dest t dst in
  let rec go rid owner hops =
    let c = step ~flow t d rid in
    if c = code_deliver then Delivered
    else if c = code_sink then Sunk
    else if c < 0 || hops >= max_hops then Dropped
    else begin
      let l = Net.link t.net c in
      let next, _ = Net.peer_of t.net l rid in
      emit next c;
      let r = Net.router t.net next in
      let crossing =
        (not (Asn.equal r.Net.owner owner))
        &&
        match l.Net.kind with
        | Net.Internal -> false
        | Net.Private_interconnect _ | Net.Ixp_lan _ -> true
      in
      if filters && crossing && edge_filtered t r.Net.owner then
        if has_iface dst r.Net.ifaces then Delivered else Dropped
      else go next r.Net.owner (hops + 1)
    end
  in
  go src_rid (Net.router t.net src_rid).Net.owner 0

let path ?(flow = 0) t ~src_rid ~dst ?(max_hops = 64) () =
  let acc = ref [] in
  ignore
    (walk ~flow ~max_hops ~filters:false t ~src_rid ~dst (fun rid lid ->
         acc := { rid; in_link = Some (Net.link t.net lid) } :: !acc));
  List.rev !acc

type trace = {
  mutable hops : int;
  rids : int array;
  lids : int array;
  mutable term : terminal;
}

let trace_max_hops = 64

let trace_buffer () =
  { hops = 0; rids = Array.make trace_max_hops 0;
    lids = Array.make trace_max_hops 0; term = Dropped }

let trace ?(flow = 0) t tr ~src_rid ~dst =
  tr.hops <- 0;
  tr.term <-
    walk ~flow ~max_hops:trace_max_hops ~filters:true t ~src_rid ~dst
      (fun rid lid ->
        tr.rids.(tr.hops) <- rid;
        tr.lids.(tr.hops) <- lid;
        tr.hops <- tr.hops + 1)

let first_link_iface t ~rid ~dst =
  match next_hop t ~rid ~dst with
  | Forward l -> Some (if fst l.Net.a = rid then snd l.Net.a else snd l.Net.b)
  | Deliver | Sink | Unreachable -> None

let reply_iface t ~rid ~reply_to = first_link_iface t ~rid ~dst:reply_to
let forward_iface t ~rid ~dst = first_link_iface t ~rid ~dst
