open Netcore
module Net = Topogen.Net
module B = Bgpdata

type route_class = Cust | Peer | Prov

type route = {
  cls : route_class;
  dist : int;
  nexthops : Asn.Set.t;
  parent : Asn.t option;
}

(* A snapshot is pure immutable data: every originated prefix's
   route table computed once and packed into flat GC-invisible arenas.
   A route table is a function of the prefix's origin set alone, so the
   words are stored once per distinct set: [s_rows] maps each prefix
   slot to its row, and rows are numbered in order of each set's first
   prefix slot, which makes the layout a pure function of the input.
   A route is a single int word in [s_words] (see the layout below);
   its next-hop set is a contiguous ascending segment of [s_arena].
   Both live in int Bigarrays — out-of-heap plain words the GC never
   traces — so a snapshot's bulk costs no major-collection work, is
   safe to share by reference across pool domains, and serializes to
   raw bytes ([Snapshot.to_bytes]) for other *processes*.

   Route word layout (0 = no route; dist >= 1 for every stored route,
   so a valid word is never 0):

     bits  0-1   route class (0 Cust, 1 Peer, 2 Prov)
     bits  2-11  dist (AS-path hops to the origin, 10 bits)
     bits 12-31  next-hop count (20 bits)
     bits 32-61  arena offset of the next-hop segment (30 bits)

   Next-hop segments are interned: identical sets share one arena
   segment (the same few sets recur across thousands of prefixes).
   Segments store ASN *slots* in ascending order, so the first entry is
   the minimum — exactly the boxed representation's [parent]. *)
type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type snapshot = {
  s_originated : (Prefix.t * Asn.Set.t) list;  (* the recorded input, as given *)
  s_selective : int list Prefix.Map.t Asn.Map.t;
  s_asns : Asn.t array;  (* sorted interning table: ASN -> slot by binary search *)
  s_pfx : Prefix.t array;  (* sorted, deduplicated originated prefixes *)
  s_origins : Asn.Set.t array;  (* origin set by prefix slot *)
  s_rows : int array;  (* prefix slot -> row of [s_words] (see [row_index]) *)
  s_words : int_ba;  (* packed route word at (row * |s_asns| + asn slot) *)
  s_arena : int_ba;  (* interned next-hop segments (ASN slots, ascending) *)
  s_lpm : int Lpm.t;  (* origin LPM; value = prefix slot into s_pfx *)
}

let cls_code = function Cust -> 0 | Peer -> 1 | Prov -> 2
let cls_of_code c = match c land 3 with 0 -> Cust | 1 -> Peer | _ -> Prov
let w_dist w = (w lsr 2) land 0x3FF
let w_count w = (w lsr 12) land 0xFFFFF
let w_off w = (w lsr 32) land 0x3FFF_FFFF

let pack_word ~cls ~dist ~count ~off =
  if dist < 1 || dist > 0x3FF then
    invalid_arg (Printf.sprintf "Bgp.freeze: dist %d outside packable range" dist);
  if count < 1 || count > 0xFFFFF then
    invalid_arg (Printf.sprintf "Bgp.freeze: %d next hops outside packable range" count);
  if off < 0 || off > 0x3FFF_FFFF then
    invalid_arg (Printf.sprintf "Bgp.freeze: arena offset %d outside packable range" off);
  cls_code cls lor (dist lsl 2) lor (count lsl 12) lor (off lsl 32)

(* One propagation state over interned ASN slots. The slot table is the
   snapshot's sorted [s_asns] (every ASN of the net or the relationship
   graph); provider, customer and peer adjacency are flat offset /
   neighbour arrays in slot order, built once per state. Because the
   slot order is the ASN order and each adjacency list is ascending, a
   next-hop segment read off them comes out ascending with no set and
   no sort. The remaining arrays are scratch, reused from prefix to
   prefix: the up / peer / provider distances of the three stages,
   their queues and the next-hop buffer handed to the emitter. *)
type kernel = {
  k_asns : Asn.t array;
  k_prov_off : int array;  (* slot -> start in [k_prov]; length n + 1 *)
  k_prov : int array;
  k_cust_off : int array;
  k_cust : int array;
  k_peer_off : int array;
  k_peer : int array;
  k_up : int array;  (* customer-route distance; 0 exactly at the origins *)
  k_pd : int array;  (* peer-route distance *)
  k_vd : int array;  (* provider-route distance *)
  k_queue : int array;  (* stage 1: up-routed slots, ascending distance *)
  k_peerq : int array;  (* peer-only slots, ascending distance *)
  k_provq : int array;  (* provider-routed slots, ascending distance *)
  k_hops : int array;
}

(* The propagation input: the world's routing facts, their slot table,
   and the kernel, which [freeze] or [refreeze] builds on first use (a
   re-freeze with nothing to propagate needs the slot table alone).
   The prefix index is lazy too: a re-freeze whose originated list
   equals the old snapshot's takes it from the old snapshot. Only those
   two read the input, on one domain; every routing query answers from
   a snapshot. *)
type input = {
  originated : (Prefix.t * Asn.Set.t) list;
  selective : int list Prefix.Map.t Asn.Map.t;
  index : (Prefix.t array * Asn.Set.t array) Lazy.t;  (* [prefix_index originated] *)
  slots : Asn.t array;  (* sorted interning table = the kernel's [k_asns] *)
  kern : kernel Lazy.t;
}

(* A query handle is the snapshot itself. *)
type t = snapshot

let prefixes s = Array.to_list s.s_pfx

let allowed_links s ~origin ~p =
  match Asn.Map.find_opt origin s.s_selective with
  | None -> None
  | Some per_prefix -> Prefix.Map.find_opt p per_prefix

(* ------------------------------------------------------------------ *)
(* The propagation kernel.                                             *)

let unset = max_int

(* Binary searches into the sorted interning arrays; -1 on a miss. *)
let slot_of_array cmp a x =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      match cmp x a.(mid) with
      | 0 -> mid
      | c when c < 0 -> go lo mid
      | _ -> go (mid + 1) hi
  in
  go 0 (Array.length a)

let origins s p =
  let i = slot_of_array Prefix.compare s.s_pfx p in
  if i < 0 then Asn.Set.empty else s.s_origins.(i)

let is_origin s asn p = Asn.Set.mem asn (origins s p)

(* The prefix axis of an originated list: its distinct prefixes, sorted,
   and each one's origin set, the union of every entry that names it. *)
let prefix_index originated =
  let sorted = List.stable_sort (fun (p, _) (q, _) -> Prefix.compare p q) originated in
  let groups =
    List.fold_left
      (fun acc (p, os) ->
        match acc with
        | (q, prev) :: rest when Prefix.equal p q -> (q, Asn.Set.union prev os) :: rest
        | _ -> (p, os) :: acc)
      [] sorted
  in
  let groups = Array.of_list (List.rev groups) in
  (Array.map fst groups, Array.map snd groups)

let slot_table net rels =
  Array.of_list (Asn.Set.elements (Asn.Set.union (Net.asns net) (B.As_rel.asns rels)))

let kernel_create asns rels =
  let n = Array.length asns in
  let adjacency neighbours =
    let off = Array.make (n + 1) 0 in
    Array.iteri
      (fun i a -> off.(i + 1) <- off.(i) + Asn.Set.cardinal (neighbours a))
      asns;
    let adj = Array.make off.(n) 0 in
    Array.iteri
      (fun i a ->
        let e = ref off.(i) in
        Asn.Set.iter
          (fun b ->
            (* Every endpoint of a relationship is in [B.As_rel.asns]. *)
            adj.(!e) <- slot_of_array Asn.compare asns b;
            incr e)
          (neighbours a))
      asns;
    (off, adj)
  in
  let k_prov_off, k_prov = adjacency (B.As_rel.providers rels) in
  let k_cust_off, k_cust = adjacency (B.As_rel.customers rels) in
  let k_peer_off, k_peer = adjacency (B.As_rel.peers rels) in
  { k_asns = asns; k_prov_off; k_prov; k_cust_off; k_cust; k_peer_off; k_peer;
    k_up = Array.make n unset; k_pd = Array.make n unset; k_vd = Array.make n unset;
    k_queue = Array.make n 0; k_peerq = Array.make n 0; k_provq = Array.make n 0;
    k_hops = Array.make n 0 }

let create net rels ~originated ~selective =
  let slots = slot_table net rels in
  { originated; selective; index = lazy (prefix_index originated); slots;
    kern = lazy (kernel_create slots rels) }

(* [origin_slots asns os] is the origin set [os] as its ascending slot
   list, with ASNs outside the slot table dropped: exactly what the
   kernel reads of [os]. Being a plain list of ints, it is canonical
   where the [Asn.Set.t] tree is not (equal sets can differ in shape),
   so it is the key of a word row. *)
let origin_slots asns os =
  List.rev
    (Asn.Set.fold
       (fun o acc ->
         let i = slot_of_array Asn.compare asns o in
         if i < 0 then acc else i :: acc)
       os [])

(* [row_index asns origins] is the row layout of a prefix axis whose
   origin sets are [origins]: each prefix slot's row, each row's
   [origin_slots] key, and the key -> row lookup ([-1] for no row).
   Rows are numbered in order of first prefix slot, so equal inputs
   give equal layouts whichever path (freeze, refreeze, decode) derives
   them. Single-origin keys, nearly all of them, are found by slot
   without hashing. *)
let row_index asns origins =
  let single = Array.make (Array.length asns) (-1) and multi = Hashtbl.create 64 in
  let find = function
    | [ x ] -> single.(x)
    | key -> Option.value ~default:(-1) (Hashtbl.find_opt multi key)
  in
  let keys = ref [] and nrows = ref 0 in
  let rows =
    Array.map
      (fun os ->
        let key = origin_slots asns os in
        match find key with
        | -1 ->
          let r = !nrows in
          (match key with [ x ] -> single.(x) <- r | _ -> Hashtbl.add multi key r);
          keys := key :: !keys;
          incr nrows;
          r
        | r -> r)
      origins
  in
  (rows, Array.of_list (List.rev !keys), find)

(* Gao-Rexford propagation of one prefix whose origins hold the slots
   [origins] (see [origin_slots]). Three stages:
   1. "up": customer routes climb c2p edges from the origins (BFS);
   2. "peer": one peer edge on top of an up route;
   3. "down": best routes descend p2c edges (Dijkstra over hop counts,
      since a provider route can feed another provider route).
   Then, for every slot holding a route, [emit slot cls dist len] runs
   with the route's next-hop slots, ascending, in [k_hops.(0 .. len-1)].
   An origin has up distance 0 and no route of its own; at dist 1 the
   origin is a neighbour's next hop like any other up-0 AS. *)
let propagate k origins emit =
  let n = Array.length k.k_asns in
  let up = k.k_up and pd = k.k_pd and vd = k.k_vd and q = k.k_queue in
  Array.fill up 0 n unset;
  Array.fill pd 0 n unset;
  Array.fill vd 0 n unset;
  let tail = ref 0 in
  List.iter
    (fun i ->
      up.(i) <- 0;
      q.(!tail) <- i;
      incr tail)
    origins;
  (* Stage 1: the queue ends up holding exactly the up-routed slots. *)
  let head = ref 0 in
  while !head < !tail do
    let x = q.(!head) in
    incr head;
    let d = up.(x) + 1 in
    for e = k.k_prov_off.(x) to k.k_prov_off.(x + 1) - 1 do
      let y = k.k_prov.(e) in
      if up.(y) = unset then begin
        up.(y) <- d;
        q.(!tail) <- y;
        incr tail
      end
    done
  done;
  (* Stage 2: peer routes. [q] is in ascending up distance, so a slot's
     first peer distance is its least; the slots whose only
     non-provider route is a peer route are appended to [pq] in
     ascending peer distance. An origin may get a peer distance too;
     its up distance 0 outranks it everywhere. *)
  let pq = k.k_peerq and np = ref 0 in
  for i = 0 to !tail - 1 do
    let x = q.(i) in
    let d = up.(x) + 1 in
    for e = k.k_peer_off.(x) to k.k_peer_off.(x + 1) - 1 do
      let y = k.k_peer.(e) in
      if up.(y) = unset && pd.(y) = unset then begin
        pq.(!np) <- y;
        incr np
      end;
      if pd.(y) > d then pd.(y) <- d
    done
  done;
  (* Stage 3: a customer without a customer or peer route (origins have
     one) takes a provider route one hop past its provider's best. Every
     edge costs one hop, so Dijkstra needs no heap: exporters are taken
     in ascending distance by merging [q] (up routes), [pq] (peer
     routes) and the FIFO [vq] of provider routes, which are appended in
     ascending distance too. The first distance a customer gets is
     therefore its least. *)
  let vq = k.k_provq and nv = ref 0 in
  let relax x d =
    for e = k.k_cust_off.(x) to k.k_cust_off.(x + 1) - 1 do
      let c = k.k_cust.(e) in
      if up.(c) = unset && pd.(c) = unset && vd.(c) = unset then begin
        vd.(c) <- d + 1;
        vq.(!nv) <- c;
        incr nv
      end
    done
  in
  let iq = ref 0 and ip = ref 0 and iv = ref 0 in
  while !iq < !tail || !ip < !np || !iv < !nv do
    let dq = if !iq < !tail then up.(q.(!iq)) else unset
    and dp = if !ip < !np then pd.(pq.(!ip)) else unset
    and dv = if !iv < !nv then vd.(vq.(!iv)) else unset in
    if dq <= dp && dq <= dv then begin
      relax q.(!iq) dq;
      incr iq
    end
    else if dp <= dv then begin
      relax pq.(!ip) dp;
      incr ip
    end
    else begin
      relax vq.(!iv) dv;
      incr iv
    end
  done;
  (* Assembly: each routed slot's best (class, dist) and the neighbours
     offering it. *)
  let hops = k.k_hops in
  let collect off adj x want best_of =
    let m = ref 0 in
    for e = off.(x) to off.(x + 1) - 1 do
      let y = adj.(e) in
      if best_of y = want then begin
        hops.(!m) <- y;
        incr m
      end
    done;
    !m
  in
  let up_of y = up.(y) in
  let best_of y =
    if up.(y) <> unset then up.(y) else if pd.(y) <> unset then pd.(y) else vd.(y)
  in
  for x = 0 to n - 1 do
    let u = up.(x) in
    if u <> 0 then
      if u <> unset then begin
        let m = collect k.k_cust_off k.k_cust x (u - 1) up_of in
        if m > 0 then emit x Cust u m
      end
      else if pd.(x) <> unset then begin
        let d = pd.(x) in
        let m = collect k.k_peer_off k.k_peer x (d - 1) up_of in
        if m > 0 then emit x Peer d m
      end
      else if vd.(x) <> unset then begin
        let d = vd.(x) in
        let m = collect k.k_prov_off k.k_prov x (d - 1) best_of in
        if m > 0 then emit x Prov d m
      end
  done

(* Growable next-hop arena with segment interning: identical next-hop
   sets share one segment. A one-slot segment is found through
   [ar_single] (slot -> offset) without allocating; longer ones, the
   rarer ECMP sets, through a table keyed on their contents. *)
type arena = {
  mutable ar_buf : int array;
  mutable ar_len : int;
  ar_single : int array;
  ar_multi : (int array, int) Hashtbl.t;
}

(* [arena_create ~slots prefix] starts an arena holding [prefix]
   verbatim; interning dedupes among the segments appended after it. *)
let arena_create ~slots (prefix : int_ba) =
  let plen = Bigarray.Array1.dim prefix in
  let buf = Array.make (max 1024 (2 * plen)) 0 in
  for i = 0 to plen - 1 do
    buf.(i) <- Bigarray.Array1.get prefix i
  done;
  { ar_buf = buf; ar_len = plen; ar_single = Array.make slots (-1);
    ar_multi = Hashtbl.create 256 }

let arena_append ar src m =
  if ar.ar_len + m > Array.length ar.ar_buf then begin
    let bigger = Array.make (2 * (ar.ar_len + m)) 0 in
    Array.blit ar.ar_buf 0 bigger 0 ar.ar_len;
    ar.ar_buf <- bigger
  end;
  let off = ar.ar_len in
  Array.blit src 0 ar.ar_buf off m;
  ar.ar_len <- off + m;
  off

(* [arena_intern ar src m] is the offset of the segment [src.(0 .. m-1)]. *)
let arena_intern ar src m =
  if m = 1 then begin
    let s = src.(0) in
    if ar.ar_single.(s) < 0 then ar.ar_single.(s) <- arena_append ar src 1;
    ar.ar_single.(s)
  end
  else
    let key = Array.sub src 0 m in
    match Hashtbl.find_opt ar.ar_multi key with
    | Some off -> off
    | None ->
      let off = arena_append ar src m in
      Hashtbl.replace ar.ar_multi key off;
      off

let arena_freeze ar =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout ar.ar_len in
  for i = 0 to ar.ar_len - 1 do
    Bigarray.Array1.set a i ar.ar_buf.(i)
  done;
  a

(* Runs the kernel for one origin key and writes its packed words into
   the [n]-word row at [base], zeroing the slots without a route and
   interning each next-hop segment. *)
let propagate_row t ar (words : int_ba) ~base ~n key =
  Bigarray.Array1.fill (Bigarray.Array1.sub words base n) 0;
  let k = Lazy.force t.kern in
  propagate k key (fun x cls dist m ->
      let off = arena_intern ar k.k_hops m in
      Bigarray.Array1.set words (base + x) (pack_word ~cls ~dist ~count:m ~off))

(* Rows are numbered in first-slot order, so the last new row id seen
   is the count. *)
let row_count s = Array.fold_left max (-1) s.s_rows + 1

(* Packed-word access: 0 means "no route". Decoding rebuilds the boxed
   [route] record on demand; the zero-allocation accessors below read
   straight out of the word for hot loops that never need the record. *)
let word_at s ~pslot ~aslot =
  Bigarray.Array1.get s.s_words ((s.s_rows.(pslot) * Array.length s.s_asns) + aslot)

let decode_route s w =
  let off = w_off w in
  let cnt = w_count w in
  let nexthops = ref Asn.Set.empty in
  for k = off + cnt - 1 downto off do
    nexthops := Asn.Set.add s.s_asns.(Bigarray.Array1.get s.s_arena k) !nexthops
  done;
  { cls = cls_of_code w;
    dist = w_dist w;
    nexthops = !nexthops;
    (* Segments are ascending, so the first entry is the minimum — the
       boxed representation's canonical parent. *)
    parent = Some s.s_asns.(Bigarray.Array1.get s.s_arena off) }

let route_at s ~pslot ~aslot =
  if pslot < 0 || aslot < 0 then None
  else match word_at s ~pslot ~aslot with 0 -> None | w -> Some (decode_route s w)

let route s asn p =
  let pi = slot_of_array Prefix.compare s.s_pfx p in
  if pi < 0 then None
  else route_at s ~pslot:pi ~aslot:(slot_of_array Asn.compare s.s_asns asn)

(* Like [lookup], but also exposes the matched prefix's interned slot:
   callers that loop over lookups — the forwarding plan's egress table,
   the crossing-link sweeps — reuse the slot directly instead of
   re-binary-searching the prefix per query. *)
let lookup_slot s asn addr =
  let i = Lpm.lookup_idx s.s_lpm addr in
  if i < 0 then None
  else
    let pslot = Lpm.value_at s.s_lpm i in
    let ai = slot_of_array Asn.compare s.s_asns asn in
    Some (s.s_pfx.(pslot), pslot, route_at s ~pslot ~aslot:ai)

let lookup s asn addr =
  match lookup_slot s asn addr with
  | None -> None
  | Some (p, _, r) -> Some (p, r)

(* Parent chains walk packed words directly: each hop is one word fetch
   plus one arena fetch (the segment head is the canonical parent),
   with the origin set resolved once up front. *)
let as_path s asn p =
  let os = origins s p in
  if Asn.Set.mem asn os then Some [ asn ]
  else
    let pslot = slot_of_array Prefix.compare s.s_pfx p in
    let rec follow aslot acc guard =
      let x = s.s_asns.(aslot) in
      if guard > 64 then None
      else if Asn.Set.mem x os then Some (List.rev (x :: acc))
      else
        match word_at s ~pslot ~aslot with
        | 0 -> None
        | w -> follow (Bigarray.Array1.get s.s_arena (w_off w)) (x :: acc) (guard + 1)
    in
    if pslot < 0 then None
    else
      let a0 = slot_of_array Asn.compare s.s_asns asn in
      if a0 < 0 then None else follow a0 [] 0

let collector_view s collectors =
  List.fold_left
    (fun rib p ->
      List.fold_left
        (fun rib c ->
          match as_path s c p with
          | Some path -> B.Rib.add_route rib p path
          | None -> rib)
        rib collectors)
    B.Rib.empty (prefixes s)

(* The origin LPM: each prefix bound to its slot. *)
let lpm_of pfx = Lpm.build (List.mapi (fun i p -> (p, i)) (Array.to_list pfx))

let words_create len = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

(* Each distinct origin key propagates once, into its own row. Rows go
   in first-prefix-slot order, the order in which one propagation per
   prefix would first meet each set, so the arena interns the same
   segments at the same offsets, and expanding the rows through
   [s_rows] gives exactly the words of one propagation per prefix. *)
let freeze ?(counter = "routing.snapshot.builds") t =
  Obs.Metrics.incr counter;
  let s_asns = t.slots in
  let s_pfx, s_origins = Lazy.force t.index in
  let n = Array.length s_asns in
  let s_rows, keys, _ = row_index s_asns s_origins in
  let s_words = words_create (Array.length keys * n) in
  let ar = arena_create ~slots:n (words_create 0) in
  Array.iteri (fun r key -> propagate_row t ar s_words ~base:(r * n) ~n key) keys;
  { s_originated = t.originated; s_selective = t.selective; s_asns; s_pfx; s_origins;
    s_rows; s_words; s_arena = arena_freeze ar; s_lpm = lpm_of s_pfx }

(* ------------------------------------------------------------------ *)
(* Incremental re-freeze: dirty-set deltas over a packed snapshot.     *)

(* A batch of topology changes in the vocabulary the delta path needs
   (produced by [Topogen.Evolve]). The contract that keeps the patch
   sound:
   - new ASes are pure stubs (provider relationships only, providers
     all present in the old snapshot) with ASNs strictly above every
     ASN the old snapshot interned, so they append to the end of the
     sorted slot table and every old slot survives verbatim;
   - [ch_removed_edges] lists every AS pair whose relationship was
     dropped. Such a drop dirties exactly the origin sets where either
     endpoint held the other in its next-hop segment: an edge outside
     every next-hop set carries no best route and feeds no distance
     table, so removing it cannot change any AS's table for that set
     (transitive effects always pass through a next hop);
   - new, removed and re-originated prefixes need no list: each
     prefix's row follows from its origin set, compared in [refreeze];
   - [ch_links_changed] lists AS pairs whose physical interconnects
     changed without a relationship change — invisible to BGP, dirt
     for the forwarding plan only. *)
type churn = {
  ch_removed_edges : (Asn.t * Asn.t) list;
  ch_new_stubs : (Asn.t * Asn.Set.t) list;
  ch_links_changed : (Asn.t * Asn.t) list;
}

let no_churn = { ch_removed_edges = []; ch_new_stubs = []; ch_links_changed = [] }

(* Fold a [Topogen.Evolve] event batch into the delta vocabulary. The
   mapping relies on the evolution invariants: aggregate/deaggregate
   only replace prefixes, link add/remove keep relationships intact
   (forwarding dirt only), and a new customer is a pure stub. *)
let churn_of_events evs =
  let module E = Topogen.Evolve in
  List.fold_left
    (fun c (te : E.timed) ->
      match te.E.ev with
      | E.Added_link { x; y; _ } | E.Removed_link { x; y; _ } ->
        { c with ch_links_changed = (x, y) :: c.ch_links_changed }
      | E.Customer_joined { asn; providers; _ } ->
        { c with ch_new_stubs = (asn, providers) :: c.ch_new_stubs }
      | E.Depeered { x; y } ->
        { c with ch_removed_edges = (x, y) :: c.ch_removed_edges }
      | E.Aggregated _ | E.Deaggregated _ -> c)
    no_churn evs

type refreeze_stats = {
  rf_total : int;
  rf_dirty : int;
  rf_dirty_prefixes : Prefix.t list;
  rf_fallback : bool;
}

(* [refreeze t ~old churn]: [t] is the propagation input of the
   post-churn world, [old] the pre-churn snapshot. The new rows are
   laid out as [freeze] lays them out; each takes as its source the old
   row with the same origin key, if any. Old ASN slots are stable and
   the old arena is the new arena's prefix, so a source row's packed
   words stay valid verbatim: a clean row is one Bigarray blit plus
   its new-stub columns. A row is dirty when no old row has its key or
   a removed edge lies in its source's next-hop segments; it
   propagates, its kernel adjacency built on the first such row. So a
   new or re-originated prefix whose origin set already has a clean
   row costs one index write. An unchanged originated list takes the
   prefix axis and origin sets from [old] (comparing the lists costs
   less than the sort that rebuilding them takes). New-AS columns on
   clean rows are filled by the stub rule: a pure stub's only possible
   route is a provider route one hop past its providers' best — the
   same answer the kernel derives, since a stub feeds nothing back into
   anyone else's table. If the append-only ASN contract is violated,
   every row propagates (counted under
   [routing.snapshot.patch_fallbacks]) rather than guessing. *)
let refreeze t ~old churn =
  Obs.Metrics.incr "routing.snapshot.patches";
  let same_originated =
    List.equal
      (fun (p, a) (q, b) -> Prefix.equal p q && Asn.Set.equal a b)
      t.originated old.s_originated
  in
  let s_pfx, s_origins =
    if same_originated then (old.s_pfx, old.s_origins) else Lazy.force t.index
  in
  let s_asns = t.slots in
  let n = Array.length s_asns in
  let np = Array.length s_pfx in
  let n_old = Array.length old.s_asns in
  let np_old = Array.length old.s_pfx in
  let asns_ok =
    n >= n_old
    &&
    let ok = ref true in
    for i = 0 to n_old - 1 do
      if not (Asn.equal s_asns.(i) old.s_asns.(i)) then ok := false
    done;
    !ok
  in
  let stub_providers = Asn.Tbl.create 8 in
  List.iter
    (fun (c, provs) -> Asn.Tbl.replace stub_providers c provs)
    churn.ch_new_stubs;
  let stubs_ok = ref true in
  for i = n_old to n - 1 do
    match Asn.Tbl.find_opt stub_providers s_asns.(i) with
    | None -> stubs_ok := false
    | Some provs ->
      Asn.Set.iter
        (fun pr ->
          if slot_of_array Asn.compare old.s_asns pr < 0 then stubs_ok := false)
        provs
  done;
  let fallback = not (asns_ok && !stubs_ok) in
  if fallback then Obs.Metrics.incr "routing.snapshot.patch_fallbacks";
  (* Each new row's key, and its source: the old row with the same key.
     Old slots keep their ASNs, so equal slot lists name equal origin
     sets. With the old axes and origin sets (every link-only batch)
     the old layout holds row for row, and a key is derived only for a
     row that propagates. *)
  let old_nrows = row_count old in
  let s_rows, key_of, src =
    if same_originated && n = n_old && not fallback then begin
      let firsts = Array.make old_nrows 0 and next = ref 0 in
      Array.iteri
        (fun p r ->
          if r = !next then begin
            firsts.(r) <- p;
            incr next
          end)
        old.s_rows;
      (old.s_rows, (fun r -> origin_slots s_asns s_origins.(firsts.(r))), Array.init old_nrows Fun.id)
    end
    else begin
      let s_rows, keys, row_of_key = row_index s_asns s_origins in
      let src = Array.make (Array.length keys) (-1) and next = ref 0 in
      if not fallback then
        Array.iteri
          (fun po ro ->
            if ro = !next then begin
              incr next;
              let r = row_of_key (origin_slots old.s_asns old.s_origins.(po)) in
              if r >= 0 then src.(r) <- ro
            end)
          old.s_rows;
      (s_rows, Array.get keys, src)
    end
  in
  let nrows = Array.length src in
  let dirty = Array.map (fun ro -> ro < 0) src in
  let seg_mem w target =
    let off = w_off w in
    let found = ref false in
    for k = off to off + w_count w - 1 do
      if Bigarray.Array1.get old.s_arena k = target then found := true
    done;
    !found
  in
  List.iter
    (fun (x, y) ->
      let ax = slot_of_array Asn.compare old.s_asns x
      and ay = slot_of_array Asn.compare old.s_asns y in
      if ax >= 0 && ay >= 0 then
        Array.iteri
          (fun r ro ->
            if not dirty.(r) then begin
              let wx = Bigarray.Array1.get old.s_words ((ro * n_old) + ax)
              and wy = Bigarray.Array1.get old.s_words ((ro * n_old) + ay) in
              if (wx <> 0 && seg_mem wx ay) || (wy <> 0 && seg_mem wy ax) then
                dirty.(r) <- true
            end)
          src)
    churn.ch_removed_edges;
  let same_rows = ref (n = n_old && nrows = old_nrows) in
  Array.iteri (fun r ro -> if ro <> r || dirty.(r) then same_rows := false) src;
  (* With the same rows, none dirty (the single-link case), the words
     and arena are shared. *)
  let s_words, s_arena =
    if !same_rows then (old.s_words, old.s_arena)
    else begin
      let words = words_create (nrows * n) in
      (* The new arena starts as a verbatim copy of the old one, so
         clean rows' packed offsets remain valid; fresh segments append
         past it. (Appended segments dedupe among themselves only — a
         duplicate of an old segment wastes a few words, never
         correctness.) *)
      let ar = arena_create ~slots:n (if fallback then words_create 0 else old.s_arena) in
      (* Each new stub's provider slots, ascending. *)
      let stub_cols =
        if fallback then [||]
        else
          Array.init (n - n_old) (fun c ->
              Asn.Tbl.find stub_providers s_asns.(n_old + c)
              |> Asn.Set.elements
              |> List.map (slot_of_array Asn.compare s_asns)
              |> Array.of_list)
      in
      let hops =
        Array.make (Array.fold_left (fun m p -> max m (Array.length p)) 1 stub_cols) 0
      in
      for r = 0 to nrows - 1 do
        let base = r * n in
        if dirty.(r) then propagate_row t ar words ~base ~n (key_of r)
        else begin
          (* A stub in the key would make the key new, so a clean
             row's stubs are never its origins. *)
          let ro = src.(r) in
          let key = if n > n_old then key_of r else [] in
          Bigarray.Array1.blit
            (Bigarray.Array1.sub old.s_words (ro * n_old) n_old)
            (Bigarray.Array1.sub words base n_old);
          Array.iteri
            (fun c provs ->
              let dist_of pa =
                if List.mem pa key then 0
                else
                  match Bigarray.Array1.get old.s_words ((ro * n_old) + pa) with
                  | 0 -> unset
                  | w -> w_dist w
              in
              let best = Array.fold_left (fun b pa -> min b (dist_of pa)) unset provs in
              let w =
                if best = unset then 0
                else begin
                  let m = ref 0 in
                  Array.iter
                    (fun pa ->
                      if dist_of pa = best then begin
                        hops.(!m) <- pa;
                        incr m
                      end)
                    provs;
                  pack_word ~cls:Prov ~dist:(best + 1) ~count:!m ~off:(arena_intern ar hops !m)
                end
              in
              Bigarray.Array1.set words (base + n_old + c) w)
            stub_cols
        end
      done;
      (words, arena_freeze ar)
    end
  in
  let prefixes_unchanged =
    np = np_old
    &&
    let ok = ref true in
    for k = 0 to np - 1 do
      if not (Prefix.equal s_pfx.(k) old.s_pfx.(k)) then ok := false
    done;
    !ok
  in
  (* LPM: shared when the prefix set is untouched (the single-link fast
     path does no LPM work), rebuilt otherwise. *)
  let s_lpm = if prefixes_unchanged then old.s_lpm else lpm_of s_pfx in
  (* A prefix is dirty unless it keeps its own old row, and that row is
     clean: new prefixes, prefixes that moved to another row, and every
     prefix of a propagated row. Old and new slots pair up by a merge
     walk (both axes are sorted). *)
  let dirty_prefixes = ref [] and n_dirty = ref 0 in
  let i = ref (np_old - 1) in
  for pn = np - 1 downto 0 do
    while !i >= 0 && Prefix.compare old.s_pfx.(!i) s_pfx.(pn) > 0 do
      decr i
    done;
    let r = s_rows.(pn) in
    let kept =
      !i >= 0 && Prefix.equal old.s_pfx.(!i) s_pfx.(pn) && (not dirty.(r))
      && src.(r) = old.s_rows.(!i)
    in
    if not kept then begin
      incr n_dirty;
      dirty_prefixes := s_pfx.(pn) :: !dirty_prefixes
    end
  done;
  Obs.Metrics.add "routing.snapshot.dirty_prefixes" !n_dirty;
  ( { s_originated = t.originated; s_selective = t.selective; s_asns; s_pfx; s_origins;
      s_rows; s_words; s_arena; s_lpm },
    { rf_total = np;
      rf_dirty = !n_dirty;
      rf_dirty_prefixes = !dirty_prefixes;
      rf_fallback = fallback } )

let of_snapshot s =
  Obs.Metrics.incr "routing.snapshot.attaches";
  s

module Snapshot = struct
  type t = snapshot

  let prefix_count s = Array.length s.s_pfx
  let asn_count s = Array.length s.s_asns

  let row_count = row_count
  let row_of_pslot s pslot = s.s_rows.(pslot)

  (* Pins are read off the selective map, which is far smaller than the
     prefix axis. Origins are visited in descending order, so each
     slot's list comes out ascending. *)
  let pins s =
    let a = Array.make (Array.length s.s_pfx) [] in
    List.iter
      (fun (o, per) ->
        Prefix.Map.iter
          (fun p lids ->
            let i = slot_of_array Prefix.compare s.s_pfx p in
            if i >= 0 && Asn.Set.mem o s.s_origins.(i) then a.(i) <- (o, lids) :: a.(i))
          per)
      (List.rev (Asn.Map.bindings s.s_selective));
    a
  let arena_length s = Bigarray.Array1.dim s.s_arena

  (* Zero-allocation slot layer: interned indices in, plain ints out.
     These are the read primitives for hot sweeps (bench query loops,
     the forwarding plan, the future query service). *)
  let asn_slot s asn = slot_of_array Asn.compare s.s_asns asn
  let prefix_slot s p = slot_of_array Prefix.compare s.s_pfx p
  let asn_of_slot s i = s.s_asns.(i)
  let prefix_of_slot s i = s.s_pfx.(i)

  let word s ~pslot ~aslot =
    if pslot < 0 || aslot < 0 then 0 else word_at s ~pslot ~aslot

  let word_dist w = w_dist w
  let word_nexthop_count w = w_count w
  let nexthop_slot s w k = Bigarray.Array1.get s.s_arena (w_off w + k)
  let route_at = route_at

  let lookup_pslot s addr =
    let i = Lpm.lookup_idx s.s_lpm addr in
    if i < 0 then -1 else Lpm.value_at s.s_lpm i

  (* Semantic equality between two snapshots of the same world:
     identical interning axes, origin sets and row layout, then every
     row's packed words decode-equal (class, dist, and next-hop slot segment compared
     element-wise, so two arenas laid out in different interning order
     still compare equal), then LPM agreement probed at every prefix
     boundary (first, last, and the addresses just outside). This is the oracle the
     churn tests run after every event batch: patched == from-scratch. *)
  exception Mismatch of string

  let equal a b =
    let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt in
    try
      let n = Array.length a.s_asns and np = Array.length a.s_pfx in
      if Array.length b.s_asns <> n then
        fail "asn counts differ: %d vs %d" n (Array.length b.s_asns);
      if Array.length b.s_pfx <> np then
        fail "prefix counts differ: %d vs %d" np (Array.length b.s_pfx);
      for i = 0 to n - 1 do
        if not (Asn.equal a.s_asns.(i) b.s_asns.(i)) then
          fail "asn slot %d differs: AS%d vs AS%d" i a.s_asns.(i) b.s_asns.(i)
      done;
      for i = 0 to np - 1 do
        if not (Prefix.equal a.s_pfx.(i) b.s_pfx.(i)) then
          fail "prefix slot %d differs: %s vs %s" i
            (Prefix.to_string a.s_pfx.(i))
            (Prefix.to_string b.s_pfx.(i))
      done;
      if Array.length b.s_origins <> Array.length a.s_origins then
        fail "origin set counts differ: %d vs %d" (Array.length a.s_origins)
          (Array.length b.s_origins);
      Array.iteri
        (fun i os ->
          if not (Asn.Set.equal os b.s_origins.(i)) then
            fail "origin sets differ at %s" (Prefix.to_string a.s_pfx.(i)))
        a.s_origins;
      for pslot = 0 to np - 1 do
        if a.s_rows.(pslot) <> b.s_rows.(pslot) then
          fail "rows differ at %s: %d vs %d" (Prefix.to_string a.s_pfx.(pslot))
            a.s_rows.(pslot) b.s_rows.(pslot)
      done;
      (* Each row once, at its first prefix slot: row ids ascend in
         first-slot order. *)
      let next = ref 0 in
      for pslot = 0 to np - 1 do
        if a.s_rows.(pslot) = !next then begin
          incr next;
          for aslot = 0 to n - 1 do
            let wa = word_at a ~pslot ~aslot and wb = word_at b ~pslot ~aslot in
            let ctx () =
              Printf.sprintf "(%s, AS%d)"
                (Prefix.to_string a.s_pfx.(pslot))
                a.s_asns.(aslot)
            in
            if (wa = 0) <> (wb = 0) then
              fail "route presence differs at %s" (ctx ());
            if wa <> 0 then begin
              if wa land 3 <> wb land 3 then fail "route class differs at %s" (ctx ());
              if w_dist wa <> w_dist wb then
                fail "route dist differs at %s: %d vs %d" (ctx ()) (w_dist wa)
                  (w_dist wb);
              if w_count wa <> w_count wb then
                fail "next-hop count differs at %s: %d vs %d" (ctx ()) (w_count wa)
                  (w_count wb);
              for k = 0 to w_count wa - 1 do
                if
                  Bigarray.Array1.get a.s_arena (w_off wa + k)
                  <> Bigarray.Array1.get b.s_arena (w_off wb + k)
                then fail "next-hop %d differs at %s" k (ctx ())
              done
            end
          done
        end
      done;
      if Lpm.length a.s_lpm <> Lpm.length b.s_lpm then
        fail "LPM sizes differ: %d vs %d" (Lpm.length a.s_lpm)
          (Lpm.length b.s_lpm);
      let probe addr =
        let pa = lookup_pslot a addr and pb = lookup_pslot b addr in
        if pa <> pb then
          fail "LPM answers differ at %s: slot %d vs %d" (Ipv4.to_string addr) pa
            pb
      in
      Array.iter
        (fun p ->
          probe (Prefix.first p);
          probe (Prefix.last p);
          let f = Ipv4.to_int (Prefix.first p)
          and l = Ipv4.to_int (Prefix.last p) in
          if f > 0 then probe (Ipv4.of_int (f - 1));
          if l < 0xFFFF_FFFF then probe (Ipv4.of_int (l + 1)))
        a.s_pfx;
      Ok ()
    with Mismatch m -> Error m

  (* {2 Serialization}

     A snapshot image is a [Store.Envelope] with magic "BDSN" (the
     header layout lives in envelope.mli). Every field of its payload
     is a big-endian 8-byte word:

     payload  := n_pfx | n_asn | n_row | |arena|
               | words (n_row x n_asn) | arena
               | asns (n_asn of them, ascending) | rows (n_pfx of them)
               | originated | selective
     originated := count, then per entry: prefix | k | k origin ASNs
     selective  := count, then per origin (ascending): asn | m,
                   then per prefix (ascending): prefix | l | l link ids

     A prefix word is its network shifted left 8 bits, or'd with its
     length. [rows] is each prefix slot's word row. The prefix axis,
     the origin sets and the LPM are not shipped: [decode] derives them
     from [originated] exactly as [create] and [freeze] do. Any flipped
     byte fails the digest check. Behind a valid digest every field is
     still checked: each count is bounded by the bytes left before
     anything is sized from it, the header counts agree with each other
     and with the prefix axis, the slot table, sets and map keys ascend
     strictly, prefixes are canonical, every route word points inside
     the arena and every arena entry is an ASN slot, [rows] and [n_row]
     are the layout [row_index] derives from the origin sets, and the
     payload ends where the trailer does. A violation is [Corrupt];
     decoding never raises. *)
  module Envelope = Store.Envelope
  module Codec = Store.Codec

  type decode_error = Envelope.error =
    | Absent | Truncated | Bad_magic | Bad_version of int | Stale | Corrupt

  let error_label = Envelope.error_label

  (* v2: Net.link gained the [live] retirement flag. v3: Net.t gained
     its internal-adjacency index. v4: the trailer is an explicit codec
     of the slot table, originated list and selective announcements in
     place of a marshaled tuple that included the whole Net.t. v5: one
     word row per distinct origin set, and the prefix slot -> row map
     in the trailer. *)
  let codec_version = 5
  let fmt = { Envelope.magic = "BDSN"; version = codec_version }
  let counts_len = 32
  let prefix_word p = (Ipv4.to_int (Prefix.network p) lsl 8) lor Prefix.len p

  let trailer s =
    let w = Codec.writer 4096 in
    let put = Codec.put_word w in
    let put_list f l =
      put (List.length l);
      List.iter f l
    in
    let put_prefix f (p, v) =
      put (prefix_word p);
      f v
    in
    Array.iter put s.s_asns;
    Array.iter put s.s_rows;
    put_list (put_prefix (fun os -> put_list put (Asn.Set.elements os))) s.s_originated;
    put_list
      (fun (o, per) ->
        put o;
        put_list (put_prefix (put_list put)) (Prefix.Map.bindings per))
      (Asn.Map.bindings s.s_selective);
    Codec.contents w

  let to_bytes s =
    let np = Array.length s.s_pfx in
    let n = Array.length s.s_asns in
    let nw = Bigarray.Array1.dim s.s_words in
    let na = Bigarray.Array1.dim s.s_arena in
    let tail, tail_len = trailer s in
    let b = Envelope.create (counts_len + (8 * nw) + (8 * na) + tail_len) in
    let pos = ref Envelope.header_len in
    let put_word v =
      Bytes.set_int64_be b !pos (Int64.of_int v);
      pos := !pos + 8
    in
    put_word np;
    put_word n;
    put_word (row_count s);
    put_word na;
    for i = 0 to nw - 1 do
      put_word (Bigarray.Array1.get s.s_words i)
    done;
    for i = 0 to na - 1 do
      put_word (Bigarray.Array1.get s.s_arena i)
    done;
    Bytes.blit tail 0 b !pos tail_len;
    Envelope.seal fmt b;
    b

  let decode r =
    let word () = Codec.word r in
    (* A count of items at least [min_words] long, bounded by the words
       left; items are read in order. *)
    let list ~min_words item =
      let c = Codec.bounded r (word ()) ~min_bytes:(8 * min_words) in
      List.init c (fun _ -> item ())
    in
    let ascending cmp l =
      Codec.check (Codec.strictly_ascending cmp l);
      l
    in
    let asns () = Asn.Set.of_list (ascending Asn.compare (list ~min_words:1 word)) in
    let prefix () =
      let w = word () in
      let net = w lsr 8 and l = w land 0xFF in
      if l > 32 || net > 0xFFFF_FFFF then Codec.fail ();
      let p = Prefix.make (Ipv4.of_int net) l in
      if Ipv4.to_int (Prefix.network p) <> net then Codec.fail ();
      p
    in
    let keyed cmp key value =
      let l =
        list ~min_words:2 (fun () ->
            let k = key () in
            (k, value ()))
      in
      ignore (ascending cmp (List.map fst l) : _ list);
      l
    in
    let np = word () in
    let n = word () in
    let nr = word () in
    let na = word () in
    (* Bounded by the words left with no multiplication that could
       wrap: [nr * n] is bounded by division first. *)
    let room = Codec.left r / 8 in
    if
      np < 0 || n < 0 || nr < 0 || na < 0 || na > room || n > room - na
      || np > room - na - n
      || (n > 0 && nr > (room - na - n - np) / n)
    then Codec.fail ();
    let nw = nr * n in
    let s_words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout nw in
    for i = 0 to nw - 1 do
      let w = word () in
      if w <> 0 && (w_count w < 1 || w_off w + w_count w > na) then Codec.fail ();
      Bigarray.Array1.set s_words i w
    done;
    let s_arena = Bigarray.Array1.create Bigarray.int Bigarray.c_layout na in
    for i = 0 to na - 1 do
      let a = word () in
      if a < 0 || a >= n then Codec.fail ();
      Bigarray.Array1.set s_arena i a
    done;
    let s_asns = Array.init n (fun _ -> word ()) in
    for i = 1 to n - 1 do
      if Asn.compare s_asns.(i - 1) s_asns.(i) >= 0 then Codec.fail ()
    done;
    let s_rows = Array.init np (fun _ -> word ()) in
    let s_originated =
      list ~min_words:2 (fun () ->
          let p = prefix () in
          (p, asns ()))
    in
    let s_selective =
      Asn.Map.of_list
        (keyed Asn.compare word (fun () ->
             Prefix.Map.of_list (keyed Prefix.compare prefix (fun () -> list ~min_words:1 word))))
    in
    let s_pfx, s_origins = prefix_index s_originated in
    if Array.length s_pfx <> np then Codec.fail ();
    let rows, keys, _ = row_index s_asns s_origins in
    if rows <> s_rows || Array.length keys <> nr then Codec.fail ();
    { s_originated; s_selective; s_asns; s_pfx; s_origins; s_rows; s_words; s_arena;
      s_lpm = lpm_of s_pfx }

  (* [decode] keeps nothing of the string it reads, so the bytes need
     no copy. *)
  let of_bytes b =
    let s = Bytes.unsafe_to_string b in
    Result.bind (Envelope.unseal fmt s) (fun (pos, len) -> Codec.decode decode s ~pos ~len)
end
