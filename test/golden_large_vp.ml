(* Golden-fixture generator for the prober at benchmark shape: the first
   VP of large_access (scale 0.1, seed 22) through the full pipeline.
   It prints the probe count, the path-memo counters, the inferred
   border map, and an MD5 of the serialized collection (every trace hop,
   alias verdict and ICMP closing, so one reply that differs in source,
   kind or IP-ID changes the digest). `dune runtest` diffs this against
   golden_large_vp.txt; `dune promote` accepts an intended change. *)

module Gen = Topogen.Gen

let () =
  let w = Gen.generate (Topogen.Scenario.large_access ~scale:0.1 ~seed:22 ()) in
  let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
  let vp = List.hd w.Gen.vps in
  let r = Bdrmap.Pipeline.execute engine inputs ~vp in
  let cs = r.Bdrmap.Pipeline.cache in
  print_endline "# first VP, scenario=large_access scale=0.1 seed=22";
  Printf.printf "# probes=%d traces=%d path_hits=%d path_misses=%d\n"
    r.Bdrmap.Pipeline.probes
    (List.length r.Bdrmap.Pipeline.collection.Bdrmap.Collect.traces)
    cs.Probesim.Engine.hits cs.Probesim.Engine.misses;
  Printf.printf "# collection md5=%s\n"
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (Bdrmap.Output.collection_to_lines r.Bdrmap.Pipeline.collection))));
  List.iter print_endline
    (Bdrmap.Output.links_to_lines r.Bdrmap.Pipeline.graph
       r.Bdrmap.Pipeline.inference)
