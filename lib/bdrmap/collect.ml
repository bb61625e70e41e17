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

(* Per-target-AS stop set (doubletree): the first external address each
   trace observed; later traces toward the same AS stop at these. *)
module Stopset = struct
  type t = (Asn.t, Ipv4.Set.t) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let mem t asn addr =
    match Hashtbl.find_opt t asn with
    | Some s -> Ipv4.Set.mem addr s
    | None -> false

  let add t asn addr =
    let cur = Option.value ~default:Ipv4.Set.empty (Hashtbl.find_opt t asn) in
    Hashtbl.replace t asn (Ipv4.Set.add addr cur)
end

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

let stop_entry ip2as addr t =
  Array.find_map
    (fun h ->
      let a = addr (Trace.id h) in
      if external_class ip2as a then Some a else None)
    t.Trace.hops

(* Plain counters threaded through collection and flushed into the
   metrics registry once at the end of a run: the probing loops stay
   observability-free (an int incr, no branch on the obs state). *)
type counts = { mutable replies : int; mutable retries : int }

(* One traceroute with per-hop stop-set checks. The fixed flow id is the
   Paris traceroute discipline (2). Hops gather in [buf], one slot per
   TTL, and are copied out once. *)
let trace_one (prober : Probesim.Prober.t) cfg ip2as uf stopset counts buf ~target_asn
    ~dst =
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
          if cfg.Config.retry_backoff_s > 0.0 then
            prober.Probesim.Prober.advance
              (cfg.Config.retry_backoff_s *. float_of_int k);
          match prober.Probesim.Prober.trace_probe ~flow:0 ~dst ~ttl with
          | Some r -> Some r
          | None -> retry (k + 1)
        end
      in
      if cfg.Config.probe_retries <= 0 then None else retry 1
  in
  let rec go ttl gaps n =
    if ttl > Array.length buf || gaps >= cfg.Config.gap_limit then (n, Trace.Nothing, false)
    else
      match probe ~ttl with
      | None -> go (ttl + 1) (gaps + 1) n
      | Some r -> (
        counts.replies <- counts.replies + 1;
        match r.Engine.kind with
        | Engine.Echo_reply -> (n, Trace.Echo r.Engine.src, false)
        | Engine.Dest_unreach -> (n, Trace.Unreach r.Engine.src, false)
        | Engine.Ttl_expired ->
          buf.(n) <- Trace.hop ~ttl (Ag.Uf.intern uf ~observed:true r.Engine.src);
          if
            cfg.Config.use_stop_sets
            && external_class ip2as r.Engine.src
            && Stopset.mem stopset target_asn r.Engine.src
          then (n + 1, Trace.Nothing, true)
          else go (ttl + 1) 0 (n + 1))
  in
  let n, closing, stopped = go 1 0 0 in
  let t = { Trace.dst; target_asn; hops = Array.sub buf 0 n; closing; stopped } in
  Option.iter (Stopset.add stopset target_asn) (stop_entry ip2as (Ag.Uf.addr uf) t);
  t

(* The trace "sees the target": some external TTL-expired hop other than
   the probed address itself (§5.3's retry rule). *)
let informative ip2as uf t =
  Array.exists
    (fun h ->
      let a = Ag.Uf.addr uf (Trace.id h) in
      external_class ip2as a && not (Ipv4.equal a t.Trace.dst))
    t.Trace.hops

let gather_traces prober cfg ip2as uf counts blocks =
  let stopset = Stopset.create () in
  (* An IP TTL is one byte. *)
  let buf = Array.make (min cfg.Config.max_ttl 0xFF) 0 in
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
              let t =
                trace_one prober cfg ip2as uf stopset counts buf ~target_asn:asn ~dst
              in
              traces := t :: !traces;
              if not (informative ip2as uf t || t.Trace.stopped) then try_candidates rest
          in
          try_candidates (Targets.candidates ~per_block:cfg.Config.addrs_per_block b);
          (* Per-block probe budget: how many of the (at most
             [addrs_per_block]) candidate addresses this block consumed
             before a trace saw the target. *)
          Obs.Metrics.observe "collect.block_attempts" (float_of_int !attempts))
        bs)
    (Targets.by_asn blocks);
  List.rev !traces

let oracle_of_prober (prober : Probesim.Prober.t) cfg uf a b =
  if Ipv4.equal a b then `Aliases
  else if Ag.Uf.same_router uf a b then `Aliases
  else if Ag.Uf.vetoed uf a b then `Not_aliases
  else begin
    let udp addr =
      Option.map (fun r -> r.Engine.src) (prober.Probesim.Prober.udp_probe ~dst:addr)
    in
    let merc = Aliasres.Mercator.test udp a b in
    match merc with
    | Aliasres.Mercator.Aliases ->
      Ag.Uf.add_alias uf a b;
      `Aliases
    | Aliasres.Mercator.Not_aliases ->
      Ag.Uf.add_not_alias uf a b;
      `Not_aliases
    | Aliasres.Mercator.Unresponsive -> (
      let sampler addr =
        Option.map (fun r -> r.Engine.ipid) (prober.Probesim.Prober.ping ~dst:addr)
      in
      let wait () = prober.Probesim.Prober.advance cfg.Config.ally_interval_s in
      match
        if cfg.Config.ally_proximity then
          Aliasres.Ally.trial_proximity sampler a b ~samples:cfg.Config.ally_samples
            ~fudge:1000
        else
          Aliasres.Ally.test sampler ~wait a b ~trials:cfg.Config.ally_trials
            ~samples:cfg.Config.ally_samples
      with
      | Aliasres.Ally.Aliases ->
        Ag.Uf.add_alias uf a b;
        `Aliases
      | Aliasres.Ally.Not_aliases ->
        Ag.Uf.add_not_alias uf a b;
        `Not_aliases
      | Aliasres.Ally.Unresponsive -> `Unknown)
  end

(* Candidate alias pairs: addresses sharing a predecessor or successor in
   the collected traces possibly answer from one router (virtual routers,
   per-destination source selection, parallel links). *)
let candidate_pairs cfg uf traces =
  let seen = Hashtbl.create 4096 in
  let pairs = ref [] in
  let count = ref 0 in
  let note a b =
    if (not (Ipv4.equal a b)) && !count < cfg.Config.max_alias_candidates then begin
      let key = if Ipv4.compare a b <= 0 then (a, b) else (b, a) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        incr count;
        pairs := key :: !pairs
      end
    end
  in
  let preds = Hashtbl.create 4096 and succs = Hashtbl.create 4096 in
  (* Membership goes through an (addr, addr) edge table: the per-address
     lists stay in first-seen order (the pair-generation order below
     depends on it) but the dedup is O(1) instead of a scan of the list,
     which grows long around heavily shared hops. *)
  let succ_seen = Hashtbl.create 4096 and pred_seen = Hashtbl.create 4096 in
  let note_adj tbl edge_seen k v =
    if not (Hashtbl.mem edge_seen (k, v)) then begin
      Hashtbl.add edge_seen (k, v) ();
      Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
    end
  in
  List.iter
    (Trace.iter_pairs (fun i j _ ->
         let a = Ag.Uf.addr uf i and b = Ag.Uf.addr uf j in
         note_adj succs succ_seen a b;
         note_adj preds pred_seen b a))
    traces;
  let all_pairs l = List.iteri (fun i a -> List.iteri (fun j b -> if j > i then note a b) l) l in
  Hashtbl.iter (fun _ l -> all_pairs l) succs;
  Hashtbl.iter (fun _ l -> all_pairs l) preds;
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
        gather_traces prober cfg ip2as uf counts blocks)
  in
  Probesim.Scheduler.note sched Probesim.Scheduler.Traceroute (count () - p0);
  let oracle = oracle_of_prober prober cfg uf in
  let mates = ref [] in
  let c =
    Obs.Span.with_span ~stage:"alias" ?vp:vp_name ~sim (fun () ->
        (* Prefixscan over consecutive hop pairs. *)
        let p1 = count () in
        let scanned = Hashtbl.create 4096 in
        List.iter
          (Trace.iter_pairs (fun p h gap ->
               if not gap then
                 let key = (p, h) in
                 if not (Hashtbl.mem scanned key) then begin
                   Hashtbl.add scanned key ();
                   let prev = Ag.Uf.addr uf p in
                   match Aliasres.Prefixscan.scan oracle ~prev ~hop:(Ag.Uf.addr uf h) with
                   | Some { Aliasres.Prefixscan.mate; _ } ->
                     if not (Ipv4.equal mate prev) then Ag.Uf.add_alias uf mate prev;
                     mates := (p, h, Ag.Uf.intern uf ~observed:false mate) :: !mates
                   | None -> ()
                 end))
          traces;
        Probesim.Scheduler.note sched Probesim.Scheduler.Prefixscan (count () - p1);
        (* Candidate alias pairs. *)
        let p2 = count () in
        let pairs = candidate_pairs cfg uf traces in
        List.iter (fun (a, b) -> ignore (oracle a b)) pairs;
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
