module Gen = Topogen.Gen

let snapshot_version = 3

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

(* Fetch and decode one entry. The store validates magic/version/key/
   digest; [Marshal.from_string] can still raise on an entry whose key
   namespace lied about the layout, so that too degrades to a miss. *)
let fetch (type a) st ~key ~what : a option =
  match Store.read st ~key with
  | Ok payload -> (
    match (Marshal.from_string payload 0 : a) with
    | v ->
      Obs.Metrics.incr "store.hits";
      Obs.Metrics.add "store.bytes_read" (String.length payload);
      Some v
    | exception _ ->
      Obs.Log.warn "store: undecodable %s entry %s; recomputing" what key;
      Obs.Metrics.incr "store.misses";
      None)
  | Error Store.Absent ->
    Obs.Metrics.incr "store.misses";
    None
  | Error m ->
    Obs.Log.warn "store: %s %s entry %s; recomputing" (Store.miss_label m)
      what key;
    Obs.Metrics.incr "store.misses";
    None

let put st ~key v =
  let payload = Marshal.to_string v [] in
  let bytes = Store.write st ~key payload in
  Obs.Metrics.incr "store.writes";
  Obs.Metrics.add "store.bytes_written" bytes

let load ?epoch st ~world ~pps ~cfg ~vp =
  let key = key ?epoch ~world ~pps ~cfg ~vp () in
  Obs.Span.with_span ~stage:"store" ~vp:vp.Gen.vp_name (fun () ->
      (fetch st ~key ~what:"run" : snapshot option))

let save ?epoch st ~world ~pps ~cfg ~vp (s : snapshot) =
  let key = key ?epoch ~world ~pps ~cfg ~vp () in
  Obs.Span.with_span ~stage:"store" ~vp:vp.Gen.vp_name (fun () ->
      put st ~key s)

(* Frozen BGP snapshots persist as their own raw-byte codec
   ([Bgp.Snapshot.to_bytes]) rather than [Marshal]: the packed arenas
   dominate the size and round-trip as plain words, and the snapshot's
   own header/digest then guards the payload a second time inside the
   store entry. The codec version participates in the key, so a layout
   change misses on key instead of decoding wrongly. *)
let bgp_snapshot_key ?(epoch = "") ~(world : Gen.world) () =
  digest_key
    ( "bdrmap-bgp-snapshot",
      Routing.Bgp.Snapshot.codec_version,
      world.Gen.params,
      epoch )

let load_bgp_snapshot ?epoch st ~world =
  let key = bgp_snapshot_key ?epoch ~world () in
  Obs.Span.with_span ~stage:"store" ~vp:"shared" (fun () ->
      match Store.read st ~key with
      | Ok payload -> (
        match Routing.Bgp.Snapshot.of_bytes (Bytes.of_string payload) with
        | Ok s ->
          (* Counted apart from the per-VP checkpoint traffic
             ([store.hits]/[store.misses]): one snapshot serves a whole
             sweep, so folding it into the per-VP counters would break
             their one-entry-per-VP accounting. *)
          Obs.Metrics.incr "store.snapshot.hits";
          Obs.Metrics.add "store.bytes_read" (String.length payload);
          Some s
        | Error e ->
          Obs.Log.warn "store: %s bgp-snapshot entry %s; recomputing"
            (Routing.Bgp.Snapshot.error_label e)
            key;
          Obs.Metrics.incr "store.snapshot.misses";
          None)
      | Error Store.Absent ->
        Obs.Metrics.incr "store.snapshot.misses";
        None
      | Error m ->
        Obs.Log.warn "store: %s bgp-snapshot entry %s; recomputing"
          (Store.miss_label m) key;
        Obs.Metrics.incr "store.snapshot.misses";
        None)

let save_bgp_snapshot ?epoch st ~world s =
  let key = bgp_snapshot_key ?epoch ~world () in
  Obs.Span.with_span ~stage:"store" ~vp:"shared" (fun () ->
      let payload =
        Bytes.unsafe_to_string (Routing.Bgp.Snapshot.to_bytes s)
      in
      let bytes = Store.write st ~key payload in
      Obs.Metrics.incr "store.snapshot.writes";
      Obs.Metrics.add "store.bytes_written" bytes)

let memo st ~key ?vp ~what f =
  match Obs.Span.with_span ~stage:"store" ?vp (fun () -> fetch st ~key ~what)
  with
  | Some v -> v
  | None ->
    let v = f () in
    Obs.Span.with_span ~stage:"store" ?vp (fun () -> put st ~key v);
    v
