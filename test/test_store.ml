(* The persistent run store: crash-safe entry format, typed miss
   reasons, byte-identical warm starts of the pipeline, checkpoint/
   resume semantics, and fallback-to-recompute on every corruption
   shape the format guards against. *)

module Gen = Topogen.Gen

let dir_counter = ref 0

(* A throwaway store directory per test, swept afterwards. *)
let with_store f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bdrmap-store-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  let st = Store.open_dir dir in
  Fun.protect
    ~finally:(fun () ->
      ignore (Store.gc ~all:true st : Store.gc_stats);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f st)

let k s = Digest.to_hex (Digest.string s)

(* Opaque string payloads: written raw, read back as the bytes within
   the bounds [Store.read] hands back. *)
let write st ~key payload = Store.write st ~key (fun w -> Store.Codec.put_raw w payload)

let read st ~key =
  Result.map (fun (image, pos, len) -> String.sub image pos len) (Store.read st ~key)

let entry_path st key = Filename.concat (Store.dir st) (key ^ ".run")

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let test_blob_roundtrip () =
  with_store (fun st ->
      let key = k "blob-1" in
      Alcotest.(check bool) "absent before write" true
        (read st ~key = Error Store.Absent);
      let payload = "hello\x00world \xff bytes" in
      let bytes = write st ~key payload in
      Alcotest.(check int) "entry size = header + payload" (64 + String.length payload) bytes;
      Alcotest.(check bool) "read back" true (read st ~key = Ok payload);
      (match Store.entries st with
      | [ (key', bytes', None) ] ->
        Alcotest.(check string) "listed key" key key';
        Alcotest.(check int) "listed size" bytes bytes'
      | es -> Alcotest.fail (Printf.sprintf "unexpected listing (%d)" (List.length es)));
      (* Overwrite is atomic replace, not append. *)
      ignore (write st ~key "v2");
      Alcotest.(check bool) "overwritten" true (read st ~key = Ok "v2");
      Alcotest.(check bool) "malformed key rejected" true
        (try
           ignore (read st ~key:"../escape");
           false
         with Invalid_argument _ -> true))

(* Each corruption shape the header guards against must surface as its
   typed miss, never as a wrong payload or an exception. *)
let test_corrupt_entries () =
  with_store (fun st ->
      let key = k "victim" in
      let corrupt name munge expect =
        ignore (write st ~key "payload under test");
        let path = entry_path st key in
        write_bytes path (munge (read_bytes path));
        Alcotest.(check bool) name true (read st ~key = Error expect)
      in
      corrupt "truncated header" (fun s -> String.sub s 0 10) Store.Truncated;
      corrupt "truncated payload"
        (fun s -> String.sub s 0 (String.length s - 3))
        Store.Truncated;
      corrupt "bad magic"
        (fun s -> "XXXX" ^ String.sub s 4 (String.length s - 4))
        Store.Bad_magic;
      corrupt "foreign version"
        (fun s ->
          let b = Bytes.of_string s in
          Bytes.set b 7 '\x63';
          Bytes.to_string b)
        (Store.Bad_version 99);
      corrupt "payload bit flip"
        (fun s ->
          let b = Bytes.of_string s in
          Bytes.set b 70 (Char.chr (Char.code (Bytes.get b 70) lxor 1));
          Bytes.to_string b)
        Store.Corrupt;
      (* An entry copied under another name: embedded key mismatch. *)
      let other = k "other" in
      ignore (write st ~key "payload under test");
      write_bytes (entry_path st other) (read_bytes (entry_path st key));
      Alcotest.(check bool) "stale (renamed) entry" true
        (read st ~key:other = Error Store.Stale);
      (* gc: sweeps the invalid entry and orphaned temp files, keeps the
         valid one. *)
      write_bytes (Filename.concat (Store.dir st) (key ^ ".run.tmp-1-0-0")) "torn";
      let stats = Store.gc st in
      Alcotest.(check int) "gc removed stale + tmp" 2 stats.Store.gc_removed;
      Alcotest.(check int) "gc kept valid" 1 stats.Store.gc_kept;
      Alcotest.(check bool) "gc freed bytes" true (stats.Store.gc_bytes_freed > 0);
      Alcotest.(check bool) "valid entry survived gc" true (Result.is_ok (Store.read st ~key));
      let stats = Store.gc ~all:true st in
      Alcotest.(check int) "gc --all removed" 1 stats.Store.gc_removed;
      Alcotest.(check int) "gc --all kept" 0 stats.Store.gc_kept)

(* An entry in format 1 (the key in the header, outside the digest)
   misses as [Bad_version 1], and [gc] sweeps it. *)
let test_format_1_entry_swept () =
  with_store (fun st ->
      let key = k "format-1" and payload = "an entry from format 1" in
      let b = Buffer.create 64 in
      Buffer.add_string b "BDRS";
      Buffer.add_int32_be b 1l;
      Buffer.add_string b key;
      Buffer.add_string b (Digest.string payload);
      Buffer.add_int64_be b (Int64.of_int (String.length payload));
      Buffer.add_string b payload;
      write_bytes (entry_path st key) (Buffer.contents b);
      Alcotest.(check int) "format version" 2 Store.format_version;
      Alcotest.(check bool) "format-1 entry misses" true
        (read st ~key = Error (Store.Bad_version 1));
      let stats = Store.gc st in
      Alcotest.(check int) "gc sweeps it" 1 stats.Store.gc_removed;
      Alcotest.(check bool) "entry gone" true (read st ~key = Error Store.Absent))

(* -- pipeline-level tests, on the tiny world -- *)

let tiny_env =
  lazy
    (let w = Gen.generate Topogen.Scenario.tiny in
     let _shared, _fwd, _engine, inputs = Bdrmap.Pipeline.setup w in
     (w, inputs))

let fingerprint (r : Bdrmap.Pipeline.run) =
  Bdrmap.Output.collection_to_lines r.Bdrmap.Pipeline.collection
  @ Bdrmap.Output.links_to_lines r.Bdrmap.Pipeline.graph
      r.Bdrmap.Pipeline.inference
  @ [ Printf.sprintf "probes=%d" r.Bdrmap.Pipeline.probes ]

let counters () =
  let ms = Obs.Metrics.collect () in
  ( Obs.Metrics.find_counter ms "store.hits",
    Obs.Metrics.find_counter ms "store.misses",
    Obs.Metrics.find_counter ms "store.writes" )

let with_counters f =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.disable ())
    f

(* The served border map built from a sweep's runs. *)
let map_bytes w runs =
  let bgp = Routing.Bgp.of_snapshot (Bdrmap.Pipeline.freeze_routing w).Bdrmap.Pipeline.snapshot in
  let merged =
    Bdrmap.Aggregate.merge_runs
      (List.map2
         (fun (vp : Gen.vp) (r : Bdrmap.Pipeline.run) ->
           (vp.Gen.vp_name, r.Bdrmap.Pipeline.graph, r.Bdrmap.Pipeline.inference))
         w.Gen.vps runs)
  in
  Bdrmap.Mapfile.to_bytes (Bdrmap.Mapfile.make ~host_asns:w.Gen.siblings ~bgp merged)

let test_warm_byte_identity () =
  let w, inputs = Lazy.force tiny_env in
  let vps = w.Gen.vps in
  let baseline =
    List.map fingerprint (Bdrmap.Pipeline.execute_all w inputs ~vps)
  in
  with_store (fun st ->
      with_counters (fun () ->
          let cold_runs = Bdrmap.Pipeline.execute_all ~store:st w inputs ~vps in
          let cold = List.map fingerprint cold_runs in
          let h, m, wr = counters () in
          Alcotest.(check int) "cold: no hits" 0 h;
          Alcotest.(check int) "cold: one miss per vp" (List.length vps) m;
          Alcotest.(check int) "cold: one write per vp" (List.length vps) wr;
          Alcotest.(check bool) "cold = no-store" true (cold = baseline);
          Obs.Metrics.reset ();
          let warm_runs = Bdrmap.Pipeline.execute_all ~store:st w inputs ~vps in
          let warm = List.map fingerprint warm_runs in
          let h, m, wr = counters () in
          Alcotest.(check int) "warm: one hit per vp" (List.length vps) h;
          Alcotest.(check int) "warm: no misses" 0 m;
          Alcotest.(check int) "warm: no writes" 0 wr;
          Alcotest.(check bool) "warm = cold" true (warm = cold);
          Alcotest.(check bool) "warm map bytes = cold map bytes" true
            (map_bytes w warm_runs = map_bytes w cold_runs);
          (* Warm over a pool: hits from worker domains, same bytes. *)
          Obs.Metrics.reset ();
          let warm_pooled =
            Netcore.Pool.with_pool ~domains:2 (fun pool ->
                List.map fingerprint
                  (Bdrmap.Pipeline.execute_all ~pool ~store:st w inputs ~vps))
          in
          let h, _, _ = counters () in
          Alcotest.(check int) "warm pooled: one hit per vp" (List.length vps) h;
          Alcotest.(check bool) "warm pooled = cold" true (warm_pooled = cold)))

let test_checkpoint_resume () =
  let w, inputs = Lazy.force tiny_env in
  let vps = w.Gen.vps in
  let first = [ List.hd vps ] in
  with_store (fun st ->
      with_counters (fun () ->
          (* A sweep that died after one VP left exactly that VP's
             checkpoint behind... *)
          ignore (Bdrmap.Pipeline.execute_all ~store:st w inputs ~vps:first);
          let cfg =
            Bdrmap.Config.default ~vp_asns:inputs.Bdrmap.Pipeline.vp_asns
          in
          List.iteri
            (fun i vp ->
              Alcotest.(check bool)
                (Printf.sprintf "vp %d checkpointed iff completed" i)
                (i = 0)
                (Result.is_ok
                   (Store.read st
                      ~key:(Bdrmap.Run_store.key ~world:w ~pps:100.0 ~cfg ~vp ()))))
            vps;
          (* ...and the re-run reuses it instead of recomputing. *)
          Obs.Metrics.reset ();
          ignore (Bdrmap.Pipeline.execute_all ~store:st w inputs ~vps);
          let h, m, wr = counters () in
          Alcotest.(check int) "resume: completed vp hit" 1 h;
          Alcotest.(check int) "resume: remaining vps missed"
            (List.length vps - 1)
            m;
          Alcotest.(check int) "resume: remaining vps checkpointed"
            (List.length vps - 1)
            wr))

(* Corrupting a checkpoint (or leaving one from an incompatible config)
   must silently degrade to recomputation with unchanged output, and the
   recompute heals the entry. *)
let test_corruption_falls_back_to_recompute () =
  let w, inputs = Lazy.force tiny_env in
  let vps = w.Gen.vps in
  let cfg = Bdrmap.Config.default ~vp_asns:inputs.Bdrmap.Pipeline.vp_asns in
  let vp0_key =
    Bdrmap.Run_store.key ~world:w ~pps:100.0 ~cfg ~vp:(List.hd vps) ()
  in
  with_store (fun st ->
      with_counters (fun () ->
          let cold =
            List.map fingerprint
              (Bdrmap.Pipeline.execute_all ~store:st w inputs ~vps)
          in
          let flip path =
            let s = read_bytes path in
            let b = Bytes.of_string s in
            let i = String.length s - 1 in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
            write_bytes path (Bytes.to_string b)
          in
          flip (entry_path st vp0_key);
          Alcotest.(check bool) "entry is corrupt" true
            (read st ~key:vp0_key = Error Store.Corrupt);
          Obs.Metrics.reset ();
          let healed =
            List.map fingerprint
              (Bdrmap.Pipeline.execute_all ~store:st w inputs ~vps)
          in
          let h, m, wr = counters () in
          Alcotest.(check bool) "output unchanged through corruption" true
            (healed = cold);
          Alcotest.(check int) "corrupt entry counted as miss" 1 m;
          Alcotest.(check int) "other vps hit" (List.length vps - 1) h;
          Alcotest.(check int) "recompute healed the entry" 1 wr;
          Alcotest.(check bool) "entry valid again" true
            (Result.is_ok (Store.read st ~key:vp0_key))))

(* The experiments' crossing-link sweeps use the same store through
   [Run_store.memo]: warm equals cold equals store-less, and the second
   sweep is all hits. *)
let test_crossing_links_memo () =
  let env = Experiments.Exp_common.make Topogen.Scenario.tiny in
  let prefixes = Experiments.Exp_common.external_prefixes env in
  let baseline = Experiments.Exp_common.crossing_links_by_vp env prefixes in
  with_store (fun st ->
      with_counters (fun () ->
          let cold = Experiments.Exp_common.crossing_links_by_vp ~store:st env prefixes in
          Alcotest.(check bool) "cold = no-store" true (cold = baseline);
          Obs.Metrics.reset ();
          let warm = Experiments.Exp_common.crossing_links_by_vp ~store:st env prefixes in
          let h, m, _ = counters () in
          Alcotest.(check bool) "warm = cold" true (warm = cold);
          Alcotest.(check int) "warm: one hit per vp"
            (List.length env.Experiments.Exp_common.world.Gen.vps)
            h;
          Alcotest.(check int) "warm: no misses" 0 m))

(* The crossing column's codec on a corpus world: a warm sweep equals
   the cold one and shares the world's link records. A truncated or
   bit-flipped entry, and one whose digest holds but whose link id runs
   past the world's links, each read as one miss and a recompute that
   equals the cold sweep. *)
let test_crossing_column_codec () =
  let module X = Experiments.Exp_common in
  let sc = List.hd Topogen.Corpus.all in
  let env = X.make (sc.Topogen.Corpus.sc_params ~scale:0.1) in
  let w = env.X.world in
  let prefixes = X.external_prefixes env in
  let nvps = List.length w.Gen.vps in
  with_store (fun st ->
      with_counters (fun () ->
          let cold = X.crossing_links_by_vp ~store:st env prefixes in
          Obs.Metrics.reset ();
          let warm = X.crossing_links_by_vp ~store:st env prefixes in
          let h, _, _ = counters () in
          Alcotest.(check int) "warm: one hit per vp" nvps h;
          Alcotest.(check bool) "warm = cold" true (warm = cold);
          Alcotest.(check bool) "warm links are the world's" true
            (List.for_all
               (List.for_all (function
                 | None -> true
                 | Some (l : Topogen.Net.link) ->
                   l == Topogen.Net.link w.Gen.net l.Topogen.Net.lid))
               warm);
          let key =
            match Store.entries st with
            | (key, _, _) :: _ -> key
            | [] -> Alcotest.fail "no entry written"
          in
          let damaged name munge =
            munge (entry_path st key);
            Obs.Metrics.reset ();
            let again = X.crossing_links_by_vp ~store:st env prefixes in
            let h, m, wr = counters () in
            Alcotest.(check bool) (name ^ ": recompute equals cold") true (again = cold);
            Alcotest.(check int) (name ^ ": one miss") 1 m;
            Alcotest.(check int) (name ^ ": other vps hit") (nvps - 1) h;
            Alcotest.(check int) (name ^ ": entry rewritten") 1 wr
          in
          let edit f path = write_bytes path (f (read_bytes path)) in
          damaged "truncated" (edit (fun s -> String.sub s 0 (String.length s - 2)));
          damaged "bit flip"
            (edit (fun s ->
                 let b = Bytes.of_string s in
                 let i = String.length s - 1 in
                 Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
                 Bytes.to_string b));
          damaged "link id past the world" (fun _ ->
              ignore
                (Store.write st ~key (fun wr ->
                     Store.Codec.put_list wr Store.Codec.put_varint
                       [ Topogen.Net.link_count w.Gen.net + 1 ])))))

let test_key_sensitivity () =
  let w, inputs = Lazy.force tiny_env in
  let cfg = Bdrmap.Config.default ~vp_asns:inputs.Bdrmap.Pipeline.vp_asns in
  let vp0 = List.hd w.Gen.vps in
  let key = Bdrmap.Run_store.key ~world:w ~pps:100.0 ~cfg ~vp:vp0 () in
  Alcotest.(check string) "key is deterministic" key
    (Bdrmap.Run_store.key ~world:w ~pps:100.0 ~cfg ~vp:vp0 ());
  Alcotest.(check bool) "pps changes the key" true
    (key <> Bdrmap.Run_store.key ~world:w ~pps:50.0 ~cfg ~vp:vp0 ());
  let cfg' = { cfg with Bdrmap.Config.ally_trials = cfg.Bdrmap.Config.ally_trials + 1 } in
  Alcotest.(check bool) "config changes the key" true
    (key <> Bdrmap.Run_store.key ~world:w ~pps:100.0 ~cfg:cfg' ~vp:vp0 ());
  Alcotest.(check bool) "epoch changes the key" true
    (key
    <> Bdrmap.Run_store.key ~epoch:"deadbeef" ~world:w ~pps:100.0 ~cfg ~vp:vp0
         ());
  (match w.Gen.vps with
  | _ :: vp1 :: _ ->
    Alcotest.(check bool) "vp changes the key" true
      (key <> Bdrmap.Run_store.key ~world:w ~pps:100.0 ~cfg ~vp:vp1 ())
  | _ -> ());
  Alcotest.(check bool) "epoch changes the bgp-snapshot key" true
    (Bdrmap.Run_store.bgp_snapshot_key ~world:w ()
    <> Bdrmap.Run_store.bgp_snapshot_key ~epoch:"deadbeef" ~world:w ())

(* A run payload written under an older [snapshot_version] holds an
   older layout: version 3's was a marshaled record, version 4's held
   the alias union-find. It must miss by key instead of being handed to
   today's decoder. The key formula is pinned first (today's version
   reproduces [Run_store.key]), so the version-3 key below is what an
   older tree wrote. *)
let test_old_version_key_misses () =
  let w, inputs = Lazy.force tiny_env in
  let cfg = Bdrmap.Config.default ~vp_asns:inputs.Bdrmap.Pipeline.vp_asns in
  let vp = List.hd w.Gen.vps in
  let key_at version =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            ( "bdrmap-run", version, w.Gen.params, "", 100.0, vp.Gen.vp_rid,
              vp.Gen.vp_name, cfg )
            []))
  in
  let key = Bdrmap.Run_store.key ~world:w ~pps:100.0 ~cfg ~vp () in
  Alcotest.(check int) "snapshot version" 6 Bdrmap.Run_store.snapshot_version;
  Alcotest.(check string) "key formula" key (key_at Bdrmap.Run_store.snapshot_version);
  let old = key_at 3 in
  Alcotest.(check bool) "version-3 key differs" true (old <> key);
  with_store (fun st ->
      ignore (write st ~key:old (Marshal.to_string (1, 2, 3, 4, "a version-3 run payload") []) : int);
      Alcotest.(check bool) "version-3 entry stored" true (Result.is_ok (Store.read st ~key:old));
      Alcotest.(check bool) "version-3 entry does not hit" true
        (Bdrmap.Run_store.load st ~world:w ~pps:100.0 ~cfg ~vp = None))


(* -- The run payload codec -- *)

module C = Store.Codec
module Ag = Aliasres.Alias_graph
module Rg = Bdrmap.Rgraph
module H = Bdrmap.Heuristics

let encoded f x =
  let w = C.writer 4096 in
  f w x;
  let b, len = C.contents w in
  Bytes.sub_string b 0 len

let decoded f s = C.decode f s ~pos:0 ~len:(String.length s)

(* Two runs agree by content: sets by their elements, the address
   table by its bytes (what [Ag.encode] writes) and its groups, the
   graph by every node, adjacency and table id, and
   the inference by value, its routers naming the graph's own node
   records. *)
let check_same_run name (a : Bdrmap.Run_store.snapshot) (b : Bdrmap.Run_store.snapshot) =
  let chk what ok = if not ok then Alcotest.failf "%s: %s differs" name what in
  let ca = a.collection and cb = b.collection in
  chk "traces" (ca.traces = cb.traces);
  chk "alias tables" (encoded Ag.encode ca.aliases = encoded Ag.encode cb.aliases);
  chk "alias groups" (Ag.groups ca.aliases = Ag.groups cb.aliases);
  chk "mates" (ca.mates = cb.mates);
  chk "other icmp" (ca.other_icmp = cb.other_icmp);
  let sched (c : Bdrmap.Collect.t) =
    let module S = Probesim.Scheduler in
    (S.pps c.sched, S.count c.sched S.Traceroute, S.count c.sched S.Alias,
     S.count c.sched S.Prefixscan)
  in
  chk "probe counts" (sched ca = sched cb);
  chk "collection counters"
    ((ca.stopset_hits, ca.alias_pairs_tested) = (cb.stopset_hits, cb.alias_pairs_tested));
  let ga = a.graph and gb = b.graph in
  chk "node count" (Rg.node_count ga = Rg.node_count gb);
  let ids l = List.map (fun (n : Rg.node) -> n.id) l in
  List.iter2
    (fun (x : Rg.node) (y : Rg.node) ->
      chk "node"
        (x.id = y.id && x.min_ttl = y.min_ttl && Netcore.Asn.Set.equal x.dests y.dests
        && Netcore.Asn.Set.equal x.last_toward y.last_toward
        && x.trace_count = y.trace_count);
      chk "node addresses"
        (Rg.observed_addrs ga x.id = Rg.observed_addrs gb y.id
        && Rg.all_addrs ga x.id = Rg.all_addrs gb y.id);
      chk "successors" (ids (Rg.succs ga x) = ids (Rg.succs gb y));
      chk "predecessors" (ids (Rg.preds ga x) = ids (Rg.preds gb y)))
    (Rg.nodes ga) (Rg.nodes gb);
  for i = 0 to Ag.length ca.aliases - 1 do
    let id g = Option.map (fun (n : Rg.node) -> n.id) (Rg.node_of_id g i) in
    chk "node by table id" (id ga = id gb)
  done;
  let ia = a.inference and ib = b.inference in
  chk "owners" (ia.owners = ib.owners);
  chk "merged_from" (ia.merged_from = ib.merged_from);
  chk "links" (ia.links = ib.links);
  chk "nextas" (ia.nextas_used = ib.nextas_used);
  chk "probes" (a.probes = b.probes);
  chk "cache" (a.cache = b.cache)

let snapshot_of (r : Bdrmap.Pipeline.run) =
  { Bdrmap.Run_store.collection = r.collection; graph = r.graph; inference = r.inference;
    probes = r.probes; cache = r.cache }

let test_codec_roundtrip () =
  let worlds =
    ("large_access@0.1", Topogen.Scenario.large_access ~scale:0.1 ())
    :: List.map
         (fun (sc : Topogen.Corpus.scenario) -> (sc.sc_name ^ "@0.1", sc.sc_params ~scale:0.1))
         Topogen.Corpus.all
  in
  List.iter
    (fun (name, params) ->
      let w = Gen.generate params in
      let _, _, _, inputs = Bdrmap.Pipeline.setup w in
      let vps = match w.Gen.vps with a :: b :: _ -> [ a; b ] | l -> l in
      List.iter
        (fun (r : Bdrmap.Pipeline.run) ->
          let s = snapshot_of r in
          let bytes = encoded Bdrmap.Run_store.encode s in
          match decoded Bdrmap.Run_store.decode bytes with
          | Error e -> Alcotest.failf "%s: %s" name (Store.miss_label e)
          | Ok s' ->
            check_same_run name s s';
            Alcotest.(check bool) (name ^ ": re-encodes to the same bytes") true
              (encoded Bdrmap.Run_store.encode s' = bytes))
        (Bdrmap.Pipeline.execute_all w inputs ~vps))
    worlds

(* The run-entry bytes of every VP of the tiny world, pinned by MD5: a
   change to the layout of any section shows here. *)
let test_codec_pinned () =
  let w, inputs = Lazy.force tiny_env in
  let digest r = Digest.to_hex (Digest.string (encoded Bdrmap.Run_store.encode (snapshot_of r))) in
  Alcotest.(check (list string)) "run-entry MD5 per VP"
    [ "e6a48cea2e0e6de2f5df7a61a5cf45bf"; "33fe37e4dbc271b32e3969f4da5eeb18";
      "8ebec0764c7ef4a3b22d3cd6349df022" ]
    (List.map digest (Bdrmap.Pipeline.execute_all w inputs ~vps:w.Gen.vps))

(* The run-entry bytes of every VP of the benchmark world (large_access,
   scale 0.3, seed 22, 100 pps), pinned by MD5 like the tiny world's:
   a change to collection bookkeeping that sends one probe more or
   writes one byte differently fails here. *)
let test_benchmark_pinned () =
  let w = Gen.generate (Topogen.Scenario.large_access ~scale:0.3 ~seed:22 ()) in
  let _, _, _, inputs = Bdrmap.Pipeline.setup w in
  let digest r = Digest.to_hex (Digest.string (encoded Bdrmap.Run_store.encode (snapshot_of r))) in
  Alcotest.(check (list string)) "run-entry MD5 per VP"
    [ "a7443e14d4454e57315cbdc7b7905e0b"; "bcc0eeddaa3ae63b930d9631e255ca0e";
      "508ffaf6270ebeaf6f79de674979283c"; "83a9c067882d3ffe954cfd2dc68a4ef6";
      "db8434821342dd60e4126d40bcfdd3ff"; "36d3e6790dfdfbbb0bffa08ad99bf411";
      "33c79934492af971db8c6df1e3877b32"; "4435cd7f9ece86a48e79305886fae608";
      "57301799e2dd4067ba6dbffae75aa09c"; "2ed6a01c5f3b1ac1a0e6adb07dd7bc37";
      "d7beb027c386090711aaefd1d36b1009"; "bbf0c8f213e06c552db8f21f3b0d2df1";
      "818606657e07ef9d2216dce0e63fbc04"; "95a3def52b24980d7311ae9d6a04bc38";
      "5ef2b6b42343af19fe217c2a8af51497"; "ed73a95ec26d1d2a8c97195cee63cd48";
      "7df4084e4144eb1543c77bd05f898be5"; "7b80eca981780197e05242c9adf8827c";
      "6c0927d48baca984b5d75cd77c8df748" ]
    (List.map digest (Bdrmap.Pipeline.execute_all w inputs ~vps:w.Gen.vps))

(* Payloads behind a valid digest that only the decoder can reject:
   each is [Corrupt], and none raises. *)
let test_codec_crafted () =
  let corrupt name f bytes =
    Alcotest.(check bool) name true
      (match decoded f bytes with Error Store.Corrupt -> true | _ -> false)
  in
  let craft put = encoded (fun w () -> put w) () in
  let varints l = craft (fun w -> List.iter (C.put_varint w) l) in
  (* A collection whose table has one observed address: one node. *)
  let one_hop =
    let uf = Ag.Uf.create () in
    let t =
      { Bdrmap.Trace.dst = Netcore.Ipv4.of_int 9; target_asn = 1;
        hops = [| Bdrmap.Trace.hop ~ttl:1 (Ag.Uf.intern uf ~observed:true (Netcore.Ipv4.of_int 7)) |];
        closing = Bdrmap.Trace.Nothing; stopped = false }
    in
    Bdrmap.Collect.finish uf [ t ] [] ~sched:(Probesim.Scheduler.create ~pps:100.0)
      ~alias_pairs_tested:0
  in
  let traces = Bdrmap.Trace.decode one_hop.aliases in
  corrupt "2^40 hop count" traces (varints [ 1 lsl 40 ]);
  corrupt "2^40 trace count" traces (varints [ 0; 0; 1 lsl 40 ]);
  (* Hop tables of (ttl, table id) pairs; list tables of (hop, tail). *)
  corrupt "hop index past the table" traces (varints [ 1; 1; 0; 1; 1; 0 ]);
  (* One trace over [hops], (ttl, table id) pairs in path order: a
     section only the named ids can make unreadable. *)
  let section hops =
    let m = List.length hops in
    craft (fun w ->
        C.put_varint w m;
        List.iter (fun (ttl, id) -> List.iter (C.put_varint w) [ ttl; id ]) hops;
        C.put_varint w m;
        for l = 1 to m do
          List.iter (C.put_varint w) [ m - l; 0 ]
        done;
        C.put_varint w 1;
        C.put_u32 w 9;
        C.put_sized w (fun w -> C.put_varint w 1);
        C.put_sized w (fun w -> C.put_u8 w 0);
        C.put_bool w false;
        C.put_varint w m)
  in
  (* A collection: an address table of one address, observed or not,
     or none, then [section]. *)
  let collection table hops =
    varints table ^ section hops ^ varints [ 0 ]
    ^ encoded Probesim.Scheduler.encode (Probesim.Scheduler.create ~pps:100.0)
    ^ varints [ 0 ]
  in
  Alcotest.(check bool) "a one-hop section decodes" true
    (Result.is_ok (decoded traces (section [ (1, 0) ]))
    && Result.is_ok (decoded Bdrmap.Collect.decode (collection [ 1; 8; 1 ] [ (1, 0) ])));
  corrupt "hop id past the address table" traces (section [ (1, 1) ]);
  (* A hop packs its TTL into 8 bits. *)
  Alcotest.(check bool) "a TTL-255 hop decodes" true
    (Result.is_ok (decoded traces (section [ (255, 0) ])));
  corrupt "hop TTL 0" traces (section [ (0, 0) ]);
  corrupt "hop TTL 256" traces (section [ (256, 0) ]);
  corrupt "trace section over an empty table" Bdrmap.Collect.decode (collection [ 0 ] [ (1, 0) ]);
  corrupt "hop naming an unobserved address" Bdrmap.Collect.decode
    (collection [ 1; 8; 0 ] [ (1, 0) ]);
  corrupt "tail list past the list's own id" traces (varints [ 1; 1; 0; 1; 0; 1 ]);
  corrupt "repeated table address" Ag.decode
    (craft (fun w -> List.iter (C.put_varint w) [ 2; 5; 1; 0; 2 ]));
  corrupt "table address past 32 bits" Ag.decode
    (craft (fun w -> List.iter (C.put_varint w) [ 1; (1 lsl 32) + 1; 0 ]));
  corrupt "first group id not 0" Ag.decode
    (craft (fun w -> List.iter (C.put_varint w) [ 1; 5; 2 ]));
  corrupt "group id skips one" Ag.decode
    (craft (fun w -> List.iter (C.put_varint w) [ 2; 5; 0; 1; 4 ]));
  (* A node count, one ASN set (empty), one node's fields, then the
     successor sets [succ]. *)
  let graph count succ =
    craft (fun w -> List.iter (C.put_varint w) ([ count; 1; 0; 1; 0; 0; 1 ] @ succ))
  in
  Alcotest.(check bool) "one-node graph decodes" true
    (match decoded (Rg.decode one_hop) (graph 1 [ 0 ]) with
    | Ok g -> Rg.node_count g = 1
    | Error _ -> false);
  corrupt "node count unlike the table's" (Rg.decode one_hop) (graph 0 [ 0 ]);
  corrupt "successor past the node count" (Rg.decode one_hop) (graph 1 [ 1; 1 ]);
  let w, inputs = Lazy.force tiny_env in
  let r = List.hd (Bdrmap.Pipeline.execute_all w inputs ~vps:[ List.hd w.Gen.vps ]) in
  let g = r.Bdrmap.Pipeline.graph in
  (* A router section of [count] (by default, as many as [ids]) and
     [ids], each an unknown owner that merged nothing, then no links and
     a nextas count of 0. *)
  let routers ?count ids =
    craft (fun w ->
        C.put_varint w (Option.value count ~default:(List.length ids));
        List.iter (fun id -> List.iter (C.put_varint w) [ id; 1; 0 ]) ids;
        List.iter (C.put_varint w) [ 0; 0 ])
  in
  let n = Rg.node_count g in
  let in_order = List.init n Fun.id in
  let with_id k v = List.mapi (fun i id -> if i = k then v else id) in_order in
  Alcotest.(check bool) "router section of ids 0..n-1 decodes" true
    (match decoded (H.decode g) (routers in_order) with
    | Ok r -> Array.for_all (( = ) H.Unknown) r.H.owners && Array.length r.H.owners = n
    | Error _ -> false);
  corrupt "router count below the node count" (H.decode g) (routers ~count:(n - 1) in_order);
  corrupt "router count past the node count" (H.decode g) (routers ~count:(n + 1) in_order);
  corrupt "router section one node short" (H.decode g) (routers (List.tl in_order));
  corrupt "router node past the node count" (H.decode g) (routers (with_id 0 n));
  corrupt "router ids out of order" (H.decode g) (routers (List.rev in_order));
  corrupt "router id repeated" (H.decode g) (routers (with_id 1 0));
  (* Sets past the largest cached template (4096 ranks) are sorted
     instead; both sides of that size decode to the set written. *)
  let module Addr_set = C.Int_set (Netcore.Ipv4.Set) (Netcore.Ipv4) in
  List.iter
    (fun n ->
      let set = Netcore.Ipv4.Set.of_list (List.init n (fun i -> Netcore.Ipv4.of_int (7 * i))) in
      let bytes = craft (fun w -> Addr_set.put w C.put_u32 set) in
      Alcotest.(check bool) (Printf.sprintf "%d-address set round trip" n) true
        (match decoded (fun r -> Addr_set.get r ~min_bytes:4 C.u32) bytes with
        | Ok s -> Netcore.Ipv4.Set.equal s set
        | Error _ -> false))
    [ 2; 4096; 4097; 5000 ];
  corrupt "trailing bytes" Bdrmap.Run_store.decode
    (encoded Bdrmap.Run_store.encode (snapshot_of r) ^ "\000")

let suite =
  [ Alcotest.test_case "blob roundtrip" `Quick test_blob_roundtrip;
    Alcotest.test_case "corrupt entries" `Quick test_corrupt_entries;
    Alcotest.test_case "format-1 entry swept" `Quick test_format_1_entry_swept;
    Alcotest.test_case "warm byte identity" `Slow test_warm_byte_identity;
    Alcotest.test_case "checkpoint resume" `Slow test_checkpoint_resume;
    Alcotest.test_case "corruption falls back to recompute" `Slow
      test_corruption_falls_back_to_recompute;
    Alcotest.test_case "crossing-links memo" `Slow test_crossing_links_memo;
    Alcotest.test_case "crossing column codec" `Slow test_crossing_column_codec;
    Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
    Alcotest.test_case "old-version key misses" `Quick test_old_version_key_misses;
    Alcotest.test_case "run codec round trip by content" `Slow test_codec_roundtrip;
    Alcotest.test_case "run codec rejects crafted payloads" `Quick test_codec_crafted;
    Alcotest.test_case "run codec bytes pinned" `Quick test_codec_pinned;
    Alcotest.test_case "benchmark world run entries pinned" `Quick test_benchmark_pinned ]
