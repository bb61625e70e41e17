open Netcore
module Net = Topogen.Net

(* A forwarding plan: IGP distance tables, egress choices and the
   interdomain-link index, precomputed once and never written again.

   IGP: every AS gets one dense all-pairs matrix over its own routers,
   indexed by each router's local index (its rank among the AS's
   routers, in rid order). Cell [to * n + from] is the distance from
   [from] to [to], by Dijkstra from [to] over the AS's internal links;
   routers of different ASes are at infinite IGP distance. Evolution never changes an existing AS's routers or internal links,
   so a patched plan shares every old AS's matrix by reference and runs
   Dijkstra only for new ASes.

   Egress: a router's egress toward a prefix is a function of the
   prefix's snapshot row (its route words) and the link pins of the
   origins that announce it selectively, which is all [candidate_lids]
   reads. Prefix slots with equal (row, pins) share one egress column
   ([p_col]); [p_egress] holds one lid per (column, planned router), or
   -1 for no egress (no route, or no reachable candidate), packed in a
   Bigarray the GC never traces. Routers outside the plan's egress rows
   answer from each instance's private memo, scored the same way. *)
type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type plan = {
  p_routers : int;  (* router count of the planned world *)
  p_as : int array;  (* rid -> AS index *)
  p_loc : int array;  (* rid -> local index within its AS *)
  p_members : int array array;  (* AS index -> its rids, ascending *)
  p_igp : float array array;  (* AS index -> n x n distances, [to * n + from] *)
  p_egr_row : int array;  (* rid -> row index into [p_egress], or -1 *)
  p_planned : int;  (* routers with an egress row *)
  p_pfx : Prefix.t array;  (* sorted prefix slots; = Bgp snapshot slots *)
  p_col : int array;  (* prefix slot -> egress column *)
  p_col_pslot : int array;  (* column -> its first prefix slot *)
  p_pins : (Asn.t * int list) list array;  (* column -> its selective pins *)
  p_egress : int_ba;  (* egress lid (-1 none) at [column * p_planned + row] *)
  p_between : (Asn.t * Asn.t, Net.link list) Hashtbl.t;
}

module Itbl = Hashtbl.Make (Int)

type t = {
  net : Net.t;
  bgp : Bgp.t;
  plan : plan Lazy.t;
  (* rid * columns + column -> chosen egress lid, or -1 for none, for
     routers without an egress row in the plan. *)
  egress_memo : int Itbl.t;
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

let links_between plan x y =
  let key = if x < y then (x, y) else (y, x) in
  Option.value ~default:[] (Hashtbl.find_opt plan.p_between key)

(* ------------------------------------------------------------------ *)
(* IGP: AS-local all-pairs tables.                                     *)

(* One pass over the routers: each AS's index (in order of its first
   router), each router's local index, the members of every AS, and
   the ASN -> AS index table. *)
let index_ases net =
  let n = Net.router_count net in
  let p_as = Array.make n 0 and p_loc = Array.make n 0 in
  let counts = Array.make (max 1 n) 0 in
  let of_asn = Asn.Tbl.create 256 in
  for rid = 0 to n - 1 do
    let owner = (Net.router net rid).Net.owner in
    let a =
      match Asn.Tbl.find_opt of_asn owner with
      | Some a -> a
      | None ->
        let a = Asn.Tbl.length of_asn in
        Asn.Tbl.add of_asn owner a;
        a
    in
    p_as.(rid) <- a;
    p_loc.(rid) <- counts.(a);
    counts.(a) <- counts.(a) + 1
  done;
  let p_members =
    Store.Codec.array (Asn.Tbl.length of_asn) ~fill:[||] (fun a -> Array.make counts.(a) 0)
  in
  for rid = 0 to n - 1 do
    p_members.(p_as.(rid)).(p_loc.(rid)) <- rid
  done;
  (p_as, p_loc, p_members, of_asn)

(* A binary min-heap of (distance, local index) entries over parallel
   arrays, ordered on the pair: it pops in (distance, rid) order,
   because local indices rank like rids. *)
type heap = { mutable len : int; hd : float array; hv : int array }

let heap_push h d v =
  let i = ref h.len in
  h.len <- h.len + 1;
  let up = ref true in
  while !up && !i > 0 do
    let p = (!i - 1) / 2 in
    let pd = h.hd.(p) in
    if d < pd || (d = pd && v < h.hv.(p)) then begin
      h.hd.(!i) <- pd;
      h.hv.(!i) <- h.hv.(p);
      i := p
    end
    else up := false
  done;
  h.hd.(!i) <- d;
  h.hv.(!i) <- v

(* Drop the top entry; the caller reads [hd.(0)], [hv.(0)] first. *)
let heap_pop h =
  let n = h.len - 1 in
  h.len <- n;
  if n > 0 then begin
    let d = h.hd.(n) and v = h.hv.(n) in
    let i = ref 0 and down = ref true in
    while !down do
      let l = (2 * !i) + 1 in
      if l >= n then down := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (h.hd.(r) < h.hd.(l) || (h.hd.(r) = h.hd.(l) && h.hv.(r) < h.hv.(l)))
          then r
          else l
        in
        let cd = h.hd.(c) in
        if cd < d || (cd = d && h.hv.(c) < v) then begin
          h.hd.(!i) <- cd;
          h.hv.(!i) <- h.hv.(c);
          i := c
        end
        else down := false
      end
    done;
    h.hd.(!i) <- d;
    h.hv.(!i) <- v
  end

(* The all-pairs matrix of AS [a]: its internal links as flat
   local-index adjacency (in [Net.internal_neighbors] order), then one
   Dijkstra per target with lazy deletion — relaxations push
   duplicates, stale pops fail the [d <= dist] guard — writing the
   target's row in place. It pops and relaxes exactly as a Dijkstra
   over rids does, so every distance is bit-identical to the reference
   model's full-width rows (test/fwd_ref.ml). *)
let as_matrix net p_as p_loc a members =
  let n = Array.length members in
  let off = Array.make (n + 1) 0 in
  Array.iteri
    (fun i rid -> off.(i + 1) <- off.(i) + List.length (Net.internal_neighbors net rid))
    members;
  let nbr = Array.make off.(n) 0 and wt = Array.make off.(n) 0.0 in
  Array.iteri
    (fun i rid ->
      List.iteri
        (fun k ((l : Net.link), y) ->
          if p_as.(y) <> a then
            invalid_arg (Printf.sprintf "Forwarding: internal link %d joins two ASes" l.Net.lid);
          nbr.(off.(i) + k) <- p_loc.(y);
          wt.(off.(i) + k) <- l.Net.weight)
        (Net.internal_neighbors net rid))
    members;
  let m = Array.make (n * n) infinity in
  let h = { len = 0; hd = Array.make (off.(n) + 1) 0.0; hv = Array.make (off.(n) + 1) 0 } in
  for s = 0 to n - 1 do
    let base = s * n in
    m.(base + s) <- 0.0;
    heap_push h 0.0 s;
    while h.len > 0 do
      let d = h.hd.(0) and x = h.hv.(0) in
      heap_pop h;
      if d <= m.(base + x) then
        for k = off.(x) to off.(x + 1) - 1 do
          let y = nbr.(k) in
          let nd = d +. wt.(k) in
          if nd < m.(base + y) then begin
            m.(base + y) <- nd;
            heap_push h nd y
          end
        done
    done
  done;
  m

let igp_distance t ~from_rid ~to_rid =
  let plan = Lazy.force t.plan in
  let a = plan.p_as.(to_rid) in
  if plan.p_as.(from_rid) <> a then infinity
  else
    plan.p_igp.(a).((plan.p_loc.(to_rid) * Array.length plan.p_members.(a))
                    + plan.p_loc.(from_rid))

(* Next internal hop from [rid] toward [target] (same AS), as a link id
   or -1: among the neighbors whose (link weight + distance) lies
   within the ECMP tolerance of the minimum, hash the flow identifier
   the way routers hash five-tuples. Flow 0 deterministically takes the
   canonical path, the least (distance, lid) neighbour, which is what
   Paris traceroute's fixed flow identifier guarantees; classic
   traceroute varies the flow per probe and wobbles across equal-cost
   paths. The target's row is resolved once per call, and the flow-0
   argmin allocates nothing. *)
let ecmp_tolerance = 1.02

let internal_next_lid ~flow t rid target =
  if rid = target then -1
  else begin
    let plan = Lazy.force t.plan in
    let a = plan.p_as.(target) in
    let m = plan.p_igp.(a) and loc = plan.p_loc in
    let base = loc.(target) * Array.length plan.p_members.(a) in
    let ns = ref (Net.internal_neighbors t.net rid) in
    if flow = 0 then begin
      let best_d = ref infinity and best = ref (-1) in
      while
        match !ns with
        | [] -> false
        | ((l : Net.link), y) :: rest ->
          ns := rest;
          let dy = m.(base + loc.(y)) in
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
          let dy = m.(base + loc.(y)) in
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

(* ------------------------------------------------------------------ *)
(* Egress: hot-potato choice, scored once per candidate set.           *)

(* The lids of the links between [asn] and [n], ascending. *)
let lids_between plan asn n =
  List.sort Int.compare (List.map (fun (l : Net.link) -> l.Net.lid) (links_between plan asn n))

(* The candidate egress links toward prefix slot [pslot], whose route
   word is [w], as ascending lids: links to any best next hop
   ([toward] maps a next-hop ASN slot to the ascending lids leading
   there), honouring per-link selective announcement when the neighbor
   is the origin. *)
let candidate_lids bgp ~toward pslot w =
  let module S = Bgp.Snapshot in
  let p = S.prefix_of_slot bgp pslot in
  let via k =
    let ns = S.nexthop_slot bgp w k in
    let lids = toward ns and n = S.asn_of_slot bgp ns in
    match Bgp.allowed_links bgp ~origin:n ~p with
    | Some allowed when Bgp.is_origin bgp n p -> (
      match List.filter (fun lid -> List.mem lid allowed) lids with
      | [] -> lids  (* no pinned link toward this neighbor: unrestricted *)
      | pinned -> pinned)
    | Some _ | None -> lids
  in
  match S.word_nexthop_count w with
  | 1 -> via 0
  | cnt -> List.sort_uniq Int.compare (List.concat (List.init cnt via))

(* The hot-potato rule for routers [lo..hi] (local indices) of AS [a]:
   the candidate whose near-side router is IGP-nearest, the lowest lid
   among equal distances, and -1 when no candidate is reachable. [lids]
   ascend, so a strict [<] keeps the lowest lid on ties and never picks
   an infinite distance; the result does not depend on candidate
   order. *)
let score net plan a lids ~lo ~hi =
  let n = Array.length plan.p_members.(a) and m = plan.p_igp.(a) in
  let best_d = Array.make (hi - lo + 1) infinity in
  let col = Array.make (hi - lo + 1) (-1) in
  List.iter
    (fun lid ->
      let l = Net.link net lid in
      let near = if plan.p_as.(fst l.Net.a) = a then fst l.Net.a else fst l.Net.b in
      let base = plan.p_loc.(near) * n in
      for i = lo to hi do
        let d = m.(base + i) in
        if d < best_d.(i - lo) then begin
          best_d.(i - lo) <- d;
          col.(i - lo) <- lid
        end
      done)
    lids;
  col

(* The egress column of every router of [asn] (AS index [a]) toward a
   slot, given its route word: distinct candidate sets are keyed by
   their lids and scored once for the whole AS. *)
let column_scorer net bgp plan asn a =
  let hi = Array.length plan.p_members.(a) - 1 in
  let links = Itbl.create 16 and memo = Hashtbl.create 64 in
  let toward ns =
    match Itbl.find_opt links ns with
    | Some lids -> lids
    | None ->
      let lids = lids_between plan asn (Bgp.Snapshot.asn_of_slot bgp ns) in
      Itbl.add links ns lids;
      lids
  in
  fun pslot w ->
    let key = candidate_lids bgp ~toward pslot w in
    match Hashtbl.find_opt memo key with
    | Some col -> col
    | None ->
      let col = score net plan a key ~lo:0 ~hi in
      Hashtbl.add memo key col;
      col

(* The egress lid router [rid] (of the AS at [aslot]) chooses toward
   prefix slot [pslot], or -1 for none: the cell of the slot's column
   in the router's row, or for a router without a row, scored once per
   column into the private memo. *)
let egress_at t rid ~pslot ~aslot =
  let plan = Lazy.force t.plan in
  let col = plan.p_col.(pslot) in
  let row = plan.p_egr_row.(rid) in
  if row >= 0 then Bigarray.Array1.get plan.p_egress ((col * plan.p_planned) + row)
  else
    let key = (rid * Array.length plan.p_col_pslot) + col in
    match Itbl.find t.egress_memo key with
    | lid -> lid
    | exception Not_found ->
      let w = Bgp.Snapshot.word t.bgp ~pslot ~aslot in
      let lid =
        if w = 0 then -1
        else
          let asn = (Net.router t.net rid).Net.owner and i = plan.p_loc.(rid) in
          let toward ns = lids_between plan asn (Bgp.Snapshot.asn_of_slot t.bgp ns) in
          (score t.net plan plan.p_as.(rid) (candidate_lids t.bgp ~toward pslot w) ~lo:i ~hi:i).(0)
      in
      Itbl.replace t.egress_memo key lid;
      lid

(* The egress columns of a snapshot: each prefix slot's column, and
   each column's first slot and pins. A column is a (row, pins) pair:
   with the route row, the pins are all [candidate_lids] reads of a
   prefix. Columns are numbered in order of first slot, so equal
   snapshots give equal layouts. Unpinned slots, nearly all of them,
   find their column through their row alone. *)
let column_index bgp =
  let module S = Bgp.Snapshot in
  let of_row = Array.make (S.row_count bgp) (-1) and of_pinned = Hashtbl.create 16 in
  let slot_pins = S.pins bgp in
  let firsts = ref [] and pins = ref [] and n = ref 0 in
  let p_col =
    Array.init (S.prefix_count bgp) (fun pslot ->
        let row = S.row_of_pslot bgp pslot and pn = slot_pins.(pslot) in
        let known =
          if pn = [] then of_row.(row)
          else Option.value ~default:(-1) (Hashtbl.find_opt of_pinned (row, pn))
        in
        if known >= 0 then known
        else begin
          let c = !n in
          if pn = [] then of_row.(row) <- c else Hashtbl.add of_pinned (row, pn) c;
          firsts := pslot :: !firsts;
          pins := pn :: !pins;
          incr n;
          c
        end)
  in
  (p_col, Array.of_list (List.rev !firsts), Array.of_list (List.rev !pins))

(* Egress rows for the hot ASes (the VP-owning ones): every probe starts
   there, so these (rid, column) pairs recur in every worker. An AS's
   members take consecutive rows in member order, so its share of a
   column is one contiguous run. Cells are left unset: [build] and
   [patch] write every column of every planned AS. *)
let egress_table of_asn p_members egress_for ~routers ~cols =
  let p_egr_row = Array.make routers (-1) in
  let rows = ref 0 in
  Asn.Set.iter
    (fun asn ->
      Option.iter
        (fun a ->
          Array.iter
            (fun rid ->
              p_egr_row.(rid) <- !rows;
              incr rows)
            p_members.(a))
        (Asn.Tbl.find_opt of_asn asn))
    egress_for;
  (p_egr_row, !rows, Bigarray.Array1.create Bigarray.int Bigarray.c_layout (!rows * cols))

let write_column plan a c (col : int array) =
  let members = plan.p_members.(a) in
  let base = (c * plan.p_planned) + plan.p_egr_row.(members.(0)) in
  for i = 0 to Array.length members - 1 do
    Bigarray.Array1.set plan.p_egress (base + i) col.(i)
  done

(* A plan over [bgp] with its IGP matrices, and the egress table
   allocated for [egress_for] but not yet written. *)
let plan_of ~egress_for net bgp (p_as, p_loc, p_members, of_asn) p_igp =
  let np = Bgp.Snapshot.prefix_count bgp in
  let p_col, p_col_pslot, p_pins = column_index bgp in
  let routers = Net.router_count net in
  let p_egr_row, p_planned, p_egress =
    egress_table of_asn p_members egress_for ~routers ~cols:(Array.length p_col_pslot)
  in
  { p_routers = routers; p_as; p_loc; p_members; p_igp; p_egr_row; p_planned;
    p_pfx = Array.init np (Bgp.Snapshot.prefix_of_slot bgp); p_col; p_col_pslot; p_pins;
    p_egress; p_between = build_between net }

(* Writes, through the candidate-set scorer, every egress column of the
   planned AS [asn] (AS index [a]) for which [recompute c w] holds,
   given the column's route word [w]; [recompute] may copy the other
   columns itself. *)
let write_columns net bgp plan ~none asn a recompute =
  let aslot = Bgp.Snapshot.asn_slot bgp asn in
  let column = column_scorer net bgp plan asn a in
  Array.iteri
    (fun c pslot ->
      let w = Bgp.Snapshot.word bgp ~pslot ~aslot in
      if recompute c w then write_column plan a c (if w = 0 then none else column pslot w))
    plan.p_col_pslot

let build ~egress_for net bgp =
  let (p_as, p_loc, p_members, of_asn) as idx = index_ases net in
  let plan =
    plan_of ~egress_for net bgp idx (Array.mapi (as_matrix net p_as p_loc) p_members)
  in
  let none = Array.make plan.p_routers (-1) in
  Asn.Set.iter
    (fun asn ->
      Option.iter
        (fun a -> write_columns net bgp plan ~none asn a (fun _ _ -> true))
        (Asn.Tbl.find_opt of_asn asn))
    egress_for;
  plan

(* Without a plan, an instance builds its own on first use: all-pairs
   IGP and the interconnect index, with every egress answered by the
   private memo. *)
let create ?plan net bgp =
  { net; bgp;
    plan =
      (match plan with
      | Some p -> Lazy.from_val p
      | None -> lazy (build ~egress_for:Asn.Set.empty net bgp));
    egress_memo = Itbl.create 4096 }

let freeze ?(egress_for = Asn.Set.empty) t =
  Obs.Metrics.incr "routing.plan.builds";
  build ~egress_for t.net t.bgp

(* ------------------------------------------------------------------ *)
(* Incremental plan patch, the forwarding side of [Bgp.refreeze].      *)

(* [patch ?egress_for t ~old ~churn ~dirty] rebuilds only the plan
   state reachable from dirty inputs. [t] must be a fresh instance over
   the post-churn net and the patched snapshot; [old] is the pre-churn
   plan; [dirty] the prefixes whose route row may differ from their
   old one ([Bgp.refreeze_stats.rf_dirty_prefixes]).

   What can be reused, and why:
   - IGP matrices: evolution never touches the routers or internal
     links of a pre-churn AS (new routers belong to new ASes, link
     events are interdomain), so an AS whose member list is unchanged
     shares its old matrix by reference. Only new ASes run Dijkstra.
   - Egress columns: a column's cells are a function of its route row
     and pins, so a column holding a clean prefix (one that kept its
     slot's route row and pins) can take that prefix's old column.
     For each planned AS, such a column is copied unless the AS is new
     to the plan or its matrix was recomputed, or some next hop z of
     its route has (AS, z) in the changed-interconnect set (candidate
     links differ with the route intact), decided on the packed route
     word and its next-hop segment. Every other column is re-scored
     through the same candidate-set scorer as [freeze]. *)
let patch ?(egress_for = Asn.Set.empty) t ~old ~(churn : Bgp.churn) ~dirty =
  Obs.Metrics.incr "routing.plan.patches";
  let snap = t.bgp and net = t.net in
  let module S = Bgp.Snapshot in
  let old_routers = old.p_routers in
  let (p_as, p_loc, p_members, of_asn) as idx = index_ases net in
  (* [fresh.(a)]: AS [a]'s matrix was recomputed, so none of its old
     egress cells carry over. *)
  let fresh = Array.make (Array.length p_members) false in
  let p_igp =
    Array.mapi
      (fun a members ->
        let r0 = members.(0) in
        let oa = if r0 < old_routers then old.p_as.(r0) else -1 in
        if oa >= 0 && old.p_members.(oa) = members then old.p_igp.(oa)
        else begin
          fresh.(a) <- true;
          as_matrix net p_as p_loc a members
        end)
      p_members
  in
  let plan = plan_of ~egress_for net snap idx p_igp in
  let np = Array.length plan.p_pfx and np_old = Array.length old.p_pfx in
  let clean = Array.make np true in
  List.iter
    (fun p ->
      let s = S.prefix_slot snap p in
      if s >= 0 then clean.(s) <- false)
    dirty;
  (* Each column's source: the old column of a clean prefix in it, old
     and new slots paired by a merge walk (both sorted). *)
  let src = Array.make (Array.length plan.p_col_pslot) (-1) in
  let i = ref 0 and j = ref 0 in
  while !i < np_old && !j < np do
    match Prefix.compare old.p_pfx.(!i) plan.p_pfx.(!j) with
    | 0 ->
      let c = plan.p_col.(!j) and oc = old.p_col.(!i) in
      if clean.(!j) && src.(c) < 0 && old.p_pins.(oc) = plan.p_pins.(c) then src.(c) <- oc;
      incr i;
      incr j
    | c when c < 0 -> incr i
    | _ -> incr j
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
  let old_row rid = if rid < old_routers then old.p_egr_row.(rid) else -1 in
  let none = Array.make plan.p_routers (-1) in
  let patched_cells = ref 0 in
  Asn.Set.iter
    (fun asn ->
      match Asn.Tbl.find_opt of_asn asn with
      | None -> ()
      | Some a ->
        let members = p_members.(a) in
        let len = Array.length members in
        let unseen = fresh.(a) || Array.exists (fun rid -> old_row rid < 0) members in
        (* An AS seen before kept its members, and so its run of
           consecutive old rows. *)
        let orow = old_row members.(0) and row = plan.p_egr_row.(members.(0)) in
        let affected = Option.value ~default:[] (Asn.Tbl.find_opt changed_with asn) in
        let rec hits w k =
          k < S.word_nexthop_count w
          && (List.mem (S.nexthop_slot snap w k) affected || hits w (k + 1))
        in
        let copy c =
          let from = (src.(c) * old.p_planned) + orow and into = (c * plan.p_planned) + row in
          for k = 0 to len - 1 do
            Bigarray.Array1.set plan.p_egress (into + k) (Bigarray.Array1.get old.p_egress (from + k))
          done
        in
        write_columns net snap plan ~none asn a (fun c w ->
            let rescore = unseen || src.(c) < 0 || (w <> 0 && hits w 0) in
            if rescore then patched_cells := !patched_cells + len else copy c;
            rescore))
    egress_for;
  Obs.Metrics.add "routing.plan.patched_cells" !patched_cells;
  plan

(* Semantic plan equality, the forwarding-side oracle of the churn
   tests: a scratch freeze of the post-churn world must agree with the
   patched plan on the AS partition, every IGP matrix cell, every
   egress cell, and the interconnect index. Egress row *assignment* is
   compared semantically (same routers planned), contents exactly
   (both sides derive from the same deterministic Dijkstra). *)
let plan_equal ~scratch ~patched =
  let fail fmt = Printf.ksprintf Result.error fmt in
  let s = scratch and q = patched in
  if s.p_routers <> q.p_routers then
    fail "router counts differ: %d vs %d" s.p_routers q.p_routers
  else if Array.length s.p_pfx <> Array.length q.p_pfx then
    fail "prefix counts differ: %d vs %d" (Array.length s.p_pfx)
      (Array.length q.p_pfx)
  else if s.p_members <> q.p_members then fail "AS partitions differ"
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
      Array.iteri
        (fun a members ->
          let n = Array.length members in
          Array.iteri
            (fun k x ->
              if not (Float.equal x q.p_igp.(a).(k)) then
                failm "igp distance to %d from %d differs: %g vs %g"
                  members.(k / n) members.(k mod n) x q.p_igp.(a).(k))
            s.p_igp.(a))
        s.p_members;
      for rid = 0 to s.p_routers - 1 do
        match (s.p_egr_row.(rid) >= 0, q.p_egr_row.(rid) >= 0) with
        | true, false | false, true ->
          failm "egress row presence differs for router %d" rid
        | false, false -> ()
        | true, true ->
          let cell p pslot =
            Bigarray.Array1.get p.p_egress ((p.p_col.(pslot) * p.p_planned) + p.p_egr_row.(rid))
          in
          for pslot = 0 to Array.length s.p_pfx - 1 do
            let a = cell s pslot and b = cell q pslot in
            if a <> b then
              failm "egress for router %d prefix %s differs: %d vs %d" rid
                (Prefix.to_string s.p_pfx.(pslot))
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
