module Gen = Topogen.Gen
module Codec = Store.Codec

(* v4: an explicit codec in place of a marshaled record. v5: the
   collection's address table in place of the alias union-find; the
   graph section holds no addresses. v6: the address table first, trace
   hops and mates by table id, and no closing-reply or stop-set-hit
   fields (both derive from the traces). *)
let snapshot_version = 6

type snapshot = {
  collection : Collect.t;
  graph : Rgraph.t;
  inference : Heuristics.result;
  probes : int;
  cache : Probesim.Engine.cache_stats;
}

let digest_key v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let key ?(epoch = "") ~(world : Gen.world) ~pps ~(cfg : Config.t)
    ~(vp : Gen.vp) () =
  (* The topology is a pure function of [params] — and, once evolution
     runs, of the epoch's chained event-log digest — and the per-VP run
     a pure function of (params, epoch, pps, cfg, vp): execute_all
     gives every VP a fresh routing/probing stack, so nothing else
     (pool size, obs flags, sweep order) may influence the snapshot.
     [epoch] is [Topogen.Evolve.log_digest]'s accumulator; the empty
     string is the unevolved world. *)
  digest_key
    ( "bdrmap-run",
      snapshot_version,
      world.Gen.params,
      epoch,
      pps,
      vp.Gen.vp_rid,
      vp.Gen.vp_name,
      cfg )

(* Fetch and decode one entry in place, counting it under
   [counter ^ ".hits"] or [".misses"]. The store validates the envelope
   and key; [decode] may still reject the payload, and that too
   degrades to a miss. *)
let fetch st ~key ~counter ~what decode =
  let decoded (image, pos, len) =
    Result.map (fun v -> (v, len)) (decode image ~pos ~len)
  in
  match Result.bind (Store.read st ~key) decoded with
  | Ok (v, bytes) ->
    Obs.Metrics.incr (counter ^ ".hits");
    Obs.Metrics.add "store.bytes_read" bytes;
    Some v
  | Error m ->
    if m <> Store.Absent then
      Obs.Log.warn "store: %s %s entry %s; recomputing" (Store.miss_label m)
        what key;
    Obs.Metrics.incr (counter ^ ".misses");
    None

let put st ~key ~counter encode =
  let bytes = Store.write st ~key encode in
  Obs.Metrics.incr (counter ^ ".writes");
  Obs.Metrics.add "store.bytes_written" bytes

(* snapshot := collection ({!Collect.encode}) | graph ({!Rgraph.encode})
             | inference ({!Heuristics.encode}, nodes by graph id)
             | probes varint | cache (hits, misses varints) *)
let encode w s =
  Collect.encode w s.collection;
  Rgraph.encode w s.graph;
  Heuristics.encode w s.inference;
  Codec.put_varint w s.probes;
  Probesim.Engine.encode_cache_stats w s.cache

let decode r =
  let collection = Collect.decode r in
  let graph = Rgraph.decode collection r in
  let inference = Heuristics.decode graph r in
  let probes = Codec.varint r in
  let cache = Probesim.Engine.decode_cache_stats r in
  { collection; graph; inference; probes; cache }

let load ?epoch st ~world ~pps ~cfg ~vp =
  let key = key ?epoch ~world ~pps ~cfg ~vp () in
  Obs.Span.with_span ~stage:"store" ~vp:vp.Gen.vp_name (fun () ->
      fetch st ~key ~counter:"store" ~what:"run" (Codec.decode decode))

let save ?epoch st ~world ~pps ~cfg ~vp (s : snapshot) =
  let key = key ?epoch ~world ~pps ~cfg ~vp () in
  Obs.Span.with_span ~stage:"store" ~vp:vp.Gen.vp_name (fun () ->
      put st ~key ~counter:"store" (fun w -> encode w s))

(* Frozen BGP snapshots persist as their own raw-byte codec
   ([Bgp.Snapshot.to_bytes]): the packed arenas dominate the size and
   round-trip as plain words, and the snapshot's own header/digest then
   guards the payload a second time inside the store entry. The codec
   version participates in the key, so a layout change misses on key
   instead of decoding wrongly. *)
let bgp_snapshot_key ?(epoch = "") ~(world : Gen.world) () =
  digest_key
    ( "bdrmap-bgp-snapshot",
      Routing.Bgp.Snapshot.codec_version,
      world.Gen.params,
      epoch )

(* Counted apart from the per-VP checkpoint traffic
   ([store.hits]/[store.misses]): one snapshot serves a whole sweep, so
   folding it into the per-VP counters would break their
   one-entry-per-VP accounting. *)
let load_bgp_snapshot ?epoch st ~world =
  let key = bgp_snapshot_key ?epoch ~world () in
  Obs.Span.with_span ~stage:"store" ~vp:"shared" (fun () ->
      fetch st ~key ~counter:"store.snapshot" ~what:"bgp-snapshot"
        (fun image ~pos ~len ->
          (* The payload is itself a sealed snapshot image; one copy per
             sweep hands it to the snapshot decoder whole. *)
          Routing.Bgp.Snapshot.of_bytes (Bytes.unsafe_of_string (String.sub image pos len))))

let save_bgp_snapshot ?epoch st ~world s =
  let key = bgp_snapshot_key ?epoch ~world () in
  Obs.Span.with_span ~stage:"store" ~vp:"shared" (fun () ->
      put st ~key ~counter:"store.snapshot" (fun w ->
          Codec.put_raw w (Bytes.unsafe_to_string (Routing.Bgp.Snapshot.to_bytes s))))

let memo st ~key ?vp ~what ~encode ~decode f =
  match
    Obs.Span.with_span ~stage:"store" ?vp (fun () ->
        fetch st ~key ~counter:"store" ~what (Codec.decode decode))
  with
  | Some v -> v
  | None ->
    let v = f () in
    Obs.Span.with_span ~stage:"store" ?vp (fun () ->
        put st ~key ~counter:"store" (fun w -> encode w v));
    v
