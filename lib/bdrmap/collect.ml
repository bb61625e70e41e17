open Netcore
module Engine = Probesim.Engine
module Gen = Topogen.Gen
module Ag = Aliasres.Alias_graph

type t = {
  traces : Trace.t list;
  aliases : Ag.t;
  mates : (int * int * int) list;
  other_icmp : (Asn.t * Ipv4.t) list;
  sched : Probesim.Scheduler.t;
  stopset_hits : int;
  alias_pairs_tested : int;
}

(* Probing limits and alias-resolution timing. *)

(* TTLs probed per trace; an IP TTL is one byte, so at most 255. *)
let max_ttl = 32

(* Consecutive silent hops ending a trace. *)
let gap_limit = 5

(* Candidate targets per block (paper: 5). *)
let addrs_per_block = 5

(* Interleaved sample pairs per Ally trial. *)
let ally_samples = 4

(* Spacing between Ally trials (paper: 300 s). *)
let ally_interval_s = 300.0

(* Extra clock advance before retry [k] ([k * backoff] seconds),
   letting token buckets refill between attempts. *)
let retry_backoff_s = 0.3

(* Two registry ids, or an ASN and a registry id, as one {!Pair_tbl}
   key: registry ids stay below 2^30, ASNs below 2^32. *)
let pair i j = (i lsl 30) lor j

(* The fields that are functions of the traces: the closing replies
   (§5.4.8 input) and the stop-set hits. *)
let make traces aliases mates sched alias_pairs_tested =
  let rec closings = function
    | [] -> []
    | t :: rest -> (
      match t.Trace.closing with
      | Trace.Echo a | Trace.Unreach a -> (t.Trace.target_asn, a) :: closings rest
      | Trace.Nothing -> closings rest)
  in
  { traces; aliases; mates; other_icmp = closings traces; sched;
    stopset_hits = List.fold_left (fun n t -> n + Bool.to_int t.Trace.stopped) 0 traces;
    alias_pairs_tested }

let finish uf traces mates ~sched ~alias_pairs_tested =
  let aliases, pos = Ag.freeze uf in
  List.iter
    (fun t ->
      let hops = t.Trace.hops in
      Array.iteri (fun k h -> hops.(k) <- Trace.hop ~ttl:(Trace.ttl h) pos.(Trace.id h)) hops)
    traces;
  let mates = List.map (fun (p, h, m) -> (pos.(p), pos.(h), pos.(m))) mates in
  make traces aliases mates sched alias_pairs_tested

let external_class ip2as addr =
  match Ip2as.classify ip2as addr with
  | Ip2as.External _ | Ip2as.Ixp _ -> true
  | Ip2as.Host | Ip2as.Unrouted | Ip2as.Reserved -> false

(* [first_hop p t] is the id of [t]'s first hop whose id satisfies [p]. *)
let first_hop p t =
  Array.find_map
    (fun h ->
      let i = Trace.id h in
      if p i then Some i else None)
    t.Trace.hops

let stop_entry ip2as addr t =
  Option.map addr (first_hop (fun i -> external_class ip2as (addr i)) t)

(* The external class of each registry id, asked of [ip2as] once per
   run: [cls] holds 0 for an id not asked yet, 1 for external, 2 for
   not. *)
type classes = { ip2as : Ip2as.t; uf : Ag.Uf.t; mutable cls : Bytes.t }

let is_external c i =
  if i >= Bytes.length c.cls then begin
    let grown = Bytes.make (2 * (i + 1)) '\000' in
    Bytes.blit c.cls 0 grown 0 (Bytes.length c.cls);
    c.cls <- grown
  end;
  match Bytes.get c.cls i with
  | '\001' -> true
  | '\002' -> false
  | _ ->
    let e = external_class c.ip2as (Ag.Uf.addr c.uf i) in
    Bytes.set c.cls i (if e then '\001' else '\002');
    e

(* Plain counters threaded through collection and flushed into the
   metrics registry once at the end of a run: the probing loops stay
   observability-free (an int incr, no branch on the obs state). *)
type counts = { mutable replies : int; mutable retries : int }

(* One traceroute with per-hop stop-set checks. The fixed flow id is the
   Paris traceroute discipline (2). Hops gather in [buf], one slot per
   TTL, and are copied out once. *)
let trace_one (prober : Probesim.Prober.t) cfg c stopset counts buf ~target_asn ~dst =
  (* Retry-with-backoff over silent hops: on an impaired network a
     missing reply is often a lost probe or a drained token bucket, not
     a genuinely silent router, so each attempt waits [k * backoff]
     longer before re-probing. The per-target budget keeps one
     pathological path (e.g. every hop behind a rate limiter) from
     consuming unbounded probes. With [probe_retries = 0] this wrapper
     sends exactly the probes the plain loop would. *)
  let budget = ref cfg.Config.retry_budget in
  let probe ~ttl =
    match prober.Probesim.Prober.trace_probe ~flow:0 ~dst ~ttl with
    | Some r -> Some r
    | None ->
      let rec retry k =
        if k > cfg.Config.probe_retries || !budget <= 0 then None
        else begin
          decr budget;
          counts.retries <- counts.retries + 1;
          prober.Probesim.Prober.advance (retry_backoff_s *. float_of_int k);
          match prober.Probesim.Prober.trace_probe ~flow:0 ~dst ~ttl with
          | Some r -> Some r
          | None -> retry (k + 1)
        end
      in
      if cfg.Config.probe_retries <= 0 then None else retry 1
  in
  let rec go ttl gaps n =
    if ttl > Array.length buf || gaps >= gap_limit then (n, Trace.Nothing, false)
    else
      match probe ~ttl with
      | None -> go (ttl + 1) (gaps + 1) n
      | Some r -> (
        counts.replies <- counts.replies + 1;
        match r.Engine.kind with
        | Engine.Echo_reply -> (n, Trace.Echo r.Engine.src, false)
        | Engine.Dest_unreach -> (n, Trace.Unreach r.Engine.src, false)
        | Engine.Ttl_expired ->
          let i = Ag.Uf.intern c.uf ~observed:true r.Engine.src in
          buf.(n) <- Trace.hop ~ttl i;
          if
            cfg.Config.use_stop_sets
            && is_external c i
            && Pair_tbl.mem stopset (pair target_asn i)
          then (n + 1, Trace.Nothing, true)
          else go (ttl + 1) 0 (n + 1))
  in
  let n, closing, stopped = go 1 0 0 in
  let t = { Trace.dst; target_asn; hops = Array.sub buf 0 n; closing; stopped } in
  Option.iter
    (fun i -> Pair_tbl.replace stopset (pair target_asn i) ())
    (first_hop (is_external c) t);
  t

(* The trace "sees the target": some external TTL-expired hop other than
   the probed address itself (§5.3's retry rule). *)
let informative c t =
  Array.exists
    (fun h ->
      let i = Trace.id h in
      is_external c i && not (Ipv4.equal (Ag.Uf.addr c.uf i) t.Trace.dst))
    t.Trace.hops

let gather_traces prober cfg c counts blocks =
  (* Doubletree's per-target-AS stop set: the first external hop each
     trace observed, by (target ASN, registry id); later traces toward
     the same AS stop at these. *)
  let stopset = Pair_tbl.create 64 in
  let buf = Array.make max_ttl 0 in
  let traces = ref [] in
  List.iter
    (fun (asn, bs) ->
      List.iter
        (fun b ->
          let attempts = ref 0 in
          let rec try_candidates = function
            | [] -> ()
            | dst :: rest ->
              Stdlib.incr attempts;
              let t = trace_one prober cfg c stopset counts buf ~target_asn:asn ~dst in
              traces := t :: !traces;
              if not (informative c t || t.Trace.stopped) then try_candidates rest
          in
          try_candidates (Targets.candidates ~per_block:addrs_per_block b);
          (* Per-block probe budget: how many of the (at most
             [addrs_per_block]) candidate addresses this block consumed
             before a trace saw the target. *)
          Obs.Metrics.observe "collect.block_attempts" (float_of_int !attempts))
        bs)
    (Targets.by_asn blocks);
  List.rev !traces

(* The alias oracle over registry ids: [oracle a ia b ib] answers for
   addresses [a] and [b], with ids [ia] and [ib], or -1 for an address
   never registered (a prefixscan mate nothing has named yet). Known
   evidence answers first; otherwise Mercator, then Ally probe the pair
   and their verdict is recorded, registering both addresses. *)
let oracle_of_prober (prober : Probesim.Prober.t) cfg uf =
  let udp dst =
    match prober.Probesim.Prober.udp_probe ~dst with
    | Some r -> Some r.Engine.src
    | None -> None
  in
  let sampler dst =
    match prober.Probesim.Prober.ping ~dst with
    | Some r -> Some r.Engine.ipid
    | None -> None
  in
  let wait () = prober.Probesim.Prober.advance ally_interval_s in
  fun a ia b ib ->
    if Ag.Uf.same uf ia ib then `Aliases
    else if Ag.Uf.vetoed uf ia ib then `Not_aliases
    else begin
      let id a ia = if ia >= 0 then ia else Ag.Uf.intern uf ~observed:false a in
      let aliases () =
        Ag.Uf.union uf (id a ia) (id b ib);
        `Aliases
      and not_aliases () =
        Ag.Uf.separate uf (id a ia) (id b ib);
        `Not_aliases
      in
      match Aliasres.Mercator.test udp a b with
      | Aliasres.Mercator.Aliases -> aliases ()
      | Aliasres.Mercator.Not_aliases -> not_aliases ()
      | Aliasres.Mercator.Unresponsive -> (
        match
          if cfg.Config.ally_proximity then
            Aliasres.Ally.trial_proximity sampler a b ~samples:ally_samples
              ~fudge:1000
          else
            Aliasres.Ally.test sampler ~wait a b ~trials:cfg.Config.ally_trials
              ~samples:ally_samples
        with
        | Aliasres.Ally.Aliases -> aliases ()
        | Aliasres.Ally.Not_aliases -> not_aliases ()
        | Aliasres.Ally.Unresponsive -> `Unknown)
    end

(* Candidate alias pairs: addresses sharing a predecessor or successor in
   the collected traces possibly answer from one router (virtual routers,
   per-destination source selection, parallel links). Each id's
   neighbours are kept newest first; the ids that have any are visited
   in the iteration order of an address-keyed [Hashtbl] made with 4096
   buckets and added to once per id, the order in which the pairs are
   probed. A pair is named lower address first. *)
let candidate_pairs cfg uf traces =
  let n = Ag.Uf.size uf in
  let succs = Array.make n [] and preds = Array.make n [] in
  let succ_order = Hashtbl.create 4096 and pred_order = Hashtbl.create 4096 in
  let edges = Pair_tbl.create 4096 in
  List.iter
    (Trace.iter_pairs (fun i j _ ->
         let e = pair i j in
         if not (Pair_tbl.mem edges e) then begin
           Pair_tbl.add edges e ();
           if succs.(i) = [] then Hashtbl.add succ_order (Ag.Uf.addr uf i) i;
           succs.(i) <- j :: succs.(i);
           if preds.(j) = [] then Hashtbl.add pred_order (Ag.Uf.addr uf j) j;
           preds.(j) <- i :: preds.(j)
         end))
    traces;
  let seen = Pair_tbl.create 4096 in
  let pairs = ref [] and count = ref 0 in
  let note i j =
    if i <> j && !count < cfg.Config.max_alias_candidates then begin
      let key = if i < j then pair i j else pair j i in
      if not (Pair_tbl.mem seen key) then begin
        Pair_tbl.add seen key ();
        incr count;
        pairs :=
          (if Ipv4.compare (Ag.Uf.addr uf i) (Ag.Uf.addr uf j) <= 0 then (i, j) else (j, i))
          :: !pairs
      end
    end
  in
  let rec all_pairs = function
    | [] -> ()
    | i :: rest ->
      List.iter (note i) rest;
      all_pairs rest
  in
  Hashtbl.iter (fun _ i -> all_pairs succs.(i)) succ_order;
  Hashtbl.iter (fun _ j -> all_pairs preds.(j)) pred_order;
  List.rev !pairs

let run_with ?vp_name (prober : Probesim.Prober.t) cfg ip2as blocks =
  let sched = Probesim.Scheduler.create ~pps:prober.Probesim.Prober.pps in
  let count () = prober.Probesim.Prober.probe_count () in
  (* The simulated probe clock of the §5.3 cost model: probes sent over
     the probing rate. Spans carry it next to the wall clock. *)
  let sim () = float_of_int (count ()) /. prober.Probesim.Prober.pps in
  let counts = { replies = 0; retries = 0 } in
  let p0 = count () in
  let uf = Ag.Uf.create () in
  let traces =
    Obs.Span.with_span ~stage:"collect" ?vp:vp_name ~sim (fun () ->
        gather_traces prober cfg { ip2as; uf; cls = Bytes.create 0 } counts blocks)
  in
  Probesim.Scheduler.note sched Probesim.Scheduler.Traceroute (count () - p0);
  let oracle = oracle_of_prober prober cfg uf in
  let mates = ref [] in
  let c =
    Obs.Span.with_span ~stage:"alias" ?vp:vp_name ~sim (fun () ->
        (* Prefixscan over distinct consecutive hop pairs. An [`Aliases]
           answer has already merged the mate into [prev]'s router. *)
        let p1 = count () in
        let scanned = Pair_tbl.create 4096 in
        List.iter
          (Trace.iter_pairs (fun p h gap ->
               if not gap then
                 let key = pair p h in
                 if not (Pair_tbl.mem scanned key) then begin
                   Pair_tbl.add scanned key ();
                   let prev = Ag.Uf.addr uf p in
                   let mate_oracle mate _ = oracle mate (Ag.Uf.lookup uf mate) prev p in
                   match Aliasres.Prefixscan.scan mate_oracle ~prev ~hop:(Ag.Uf.addr uf h) with
                   | Some { Aliasres.Prefixscan.mate; _ } ->
                     mates := (p, h, Ag.Uf.intern uf ~observed:false mate) :: !mates
                   | None -> ()
                 end))
          traces;
        Probesim.Scheduler.note sched Probesim.Scheduler.Prefixscan (count () - p1);
        (* Candidate alias pairs. *)
        let p2 = count () in
        let pairs = candidate_pairs cfg uf traces in
        List.iter (fun (i, j) -> ignore (oracle (Ag.Uf.addr uf i) i (Ag.Uf.addr uf j) j)) pairs;
        Probesim.Scheduler.note sched Probesim.Scheduler.Alias (count () - p2);
        finish uf traces (List.rev !mates) ~sched ~alias_pairs_tested:(List.length pairs))
  in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.add "collect.traces" (List.length c.traces);
    Obs.Metrics.add "collect.stopset_hits" c.stopset_hits;
    Obs.Metrics.add "collect.alias_pairs" c.alias_pairs_tested;
    Obs.Metrics.add "collect.mates" (List.length c.mates);
    Obs.Metrics.add "collect.replies" counts.replies;
    Obs.Metrics.add "collect.retries" counts.retries;
    Obs.Metrics.add "collect.probes.traceroute"
      (Probesim.Scheduler.count sched Probesim.Scheduler.Traceroute);
    Obs.Metrics.add "collect.probes.prefixscan"
      (Probesim.Scheduler.count sched Probesim.Scheduler.Prefixscan);
    Obs.Metrics.add "collect.probes.alias"
      (Probesim.Scheduler.count sched Probesim.Scheduler.Alias)
  end;
  c

(* Flush the engine's cache counters and the fault layer's gate counters
   into the registry as deltas over this run, so a shared engine (the
   experiment cache reuses one across runs) still reports per-run
   totals. *)
let flush_engine_stats eng before =
  match before with
  | None -> ()
  | Some ((s0 : Engine.cache_stats), (f0 : Probesim.Fault.stats), p0) ->
    let s1 = Engine.stats eng in
    let f1 = Engine.fault_stats eng in
    Obs.Metrics.add "engine.probes" (Engine.probe_count eng - p0);
    Obs.Metrics.add "engine.cache.hits" (s1.Engine.hits - s0.Engine.hits);
    Obs.Metrics.add "engine.cache.misses" (s1.Engine.misses - s0.Engine.misses);
    Obs.Metrics.add "fault.probes_lost"
      (f1.Probesim.Fault.probes_lost - f0.Probesim.Fault.probes_lost);
    Obs.Metrics.add "fault.replies_lost"
      (f1.Probesim.Fault.replies_lost - f0.Probesim.Fault.replies_lost);
    Obs.Metrics.add "fault.rate_limited"
      (f1.Probesim.Fault.rate_limited - f0.Probesim.Fault.rate_limited);
    Obs.Metrics.add "fault.dark_dropped"
      (f1.Probesim.Fault.dark_dropped - f0.Probesim.Fault.dark_dropped);
    Obs.Metrics.add "fault.failure_hits"
      (f1.Probesim.Fault.failure_hits - f0.Probesim.Fault.failure_hits)

let run eng cfg ip2as ~vp blocks =
  let before =
    if Obs.Metrics.enabled () then
      Some (Engine.stats eng, Engine.fault_stats eng, Engine.probe_count eng)
    else None
  in
  let r =
    run_with ~vp_name:vp.Gen.vp_name (Probesim.Prober.local eng ~vp) cfg ip2as
      blocks
  in
  flush_engine_stats eng before;
  r

(* {2 Codec}

   collection := address table ({!Ag.encode})
               | traces ({!Trace.encode}, hops by table id)
               | mates (count, then prev, hop, mate table ids, varints)
               | sched | alias_pairs_tested varint

   The closing replies and the stop-set hits are not written: {!make}
   derives them from the traces. *)

module Codec = Store.Codec

let encode w t =
  Ag.encode w t.aliases;
  Trace.encode w t.traces;
  Codec.put_list w
    (fun w (p, h, m) ->
      Codec.put_varint w p;
      Codec.put_varint w h;
      Codec.put_varint w m)
    t.mates;
  Probesim.Scheduler.encode w t.sched;
  Codec.put_varint w t.alias_pairs_tested

let decode r =
  let aliases = Ag.decode r in
  let traces = Trace.decode aliases r in
  let id r =
    let i = Codec.varint r in
    if i >= Ag.length aliases then Codec.fail ();
    i
  in
  let mates =
    Codec.list r ~min_bytes:3 (fun r ->
        let p = id r in
        let h = id r in
        (p, h, id r))
  in
  let sched = Probesim.Scheduler.decode r in
  make traces aliases mates sched (Codec.varint r)
