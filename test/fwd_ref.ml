(* Reference model of Routing.Forwarding's plan: the builder as it was
   before the forwarding kernel moved to AS-local all-pairs tables and
   candidate-set egress scoring, kept unchanged as the oracle.

   - IGP: one full-width distance row per target router, Dijkstra from
     the target over internal links on the closure-compared [Heap] with
     boxed (distance, rid) entries;
   - egress: every (router, prefix) cell scored on its own by
     [egress_among] over the candidate links in route order, through
     [igp_distance] (two router lookups and an owner test per
     candidate).

   Both are memoized lazily, so a test can ask every cell without
   recomputing rows. It shares no code with lib/routing/forwarding.ml;
   it reads the snapshot only through Bgp's public query functions. *)

open Netcore
module Net = Topogen.Net
module Bgp = Routing.Bgp

type t = {
  net : Net.t;
  bgp : Bgp.t;
  igp : (int, float array) Hashtbl.t;
  egress : (int * Prefix.t, int) Hashtbl.t;
  between : (Asn.t * Asn.t, Net.link list) Hashtbl.t;
}

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

let create net bgp =
  { net; bgp; igp = Hashtbl.create 512; egress = Hashtbl.create 4096;
    between = build_between net }

let links_between t x y =
  let key = if x < y then (x, y) else (y, x) in
  Option.value ~default:[] (Hashtbl.find_opt t.between key)

(* Dijkstra from [target] over internal links of its AS, on a binary
   heap with lazy deletion: relaxations push duplicates and stale pops
   are skipped by the [d <= dist.(x)] guard. *)
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

let row t target =
  match Hashtbl.find_opt t.igp target with
  | Some dist -> dist
  | None ->
    let dist = compute_dist t.net target in
    Hashtbl.replace t.igp target dist;
    dist

let igp_distance t ~from_rid ~to_rid =
  let ra = Net.router t.net from_rid and rb = Net.router t.net to_rid in
  if not (Asn.equal ra.Net.owner rb.Net.owner) then infinity
  else (row t to_rid).(from_rid)

(* Candidate egress links for [asn] toward prefix [p]: links to any
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
            | [] -> ls
            | pinned -> pinned)
        else ls
      in
      List.rev_append ls acc)
    route.Bgp.nexthops []

(* Hot-potato: the IGP-nearest near-side router among [candidates],
   ties on the lowest link id, -1 when none is reachable. *)
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

let egress_lid t rid ~pslot ~aslot =
  let p = Bgp.Snapshot.prefix_of_slot t.bgp pslot in
  match Hashtbl.find_opt t.egress (rid, p) with
  | Some lid -> lid
  | None ->
    let asn = (Net.router t.net rid).Net.owner in
    let lid =
      match Bgp.Snapshot.route_at t.bgp ~pslot ~aslot with
      | Some route -> egress_among t rid asn (egress_candidates t asn p route)
      | None -> -1
    in
    Hashtbl.replace t.egress (rid, p) lid;
    lid

(* The interdomain link router [rid]'s AS leaves by toward [dst]: none
   when the destination's home router is in the same AS, when the AS
   has no route, or when no candidate is reachable. *)
let egress_link t ~rid ~dst =
  let owner = (Net.router t.net rid).Net.owner in
  let home_owner =
    match Net.home_of t.net dst with Some h -> Some h.Net.owner | None -> None
  in
  let pslot = Bgp.Snapshot.lookup_pslot t.bgp dst in
  let aslot = Bgp.Snapshot.asn_slot t.bgp owner in
  if home_owner = Some owner then None
  else if Bgp.Snapshot.word t.bgp ~pslot ~aslot = 0 then None
  else
    let lid = egress_lid t rid ~pslot ~aslot in
    if lid < 0 then None else Some (Net.link t.net lid)
