(* Golden-fixture generator: the full pipeline on the fixed-seed tiny
   world, printed as the border map (near|far|neighbor|heuristic lines).
   `dune runtest` diffs this against golden_tiny_links.txt, so any
   change to collection, alias resolution, inference ordering, or the
   fault layer's zero-config path shows up as a reviewable diff;
   `dune promote` accepts an intended change. *)

module Gen = Topogen.Gen

let () =
  let w = Gen.generate Topogen.Scenario.tiny in
  let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
  let vp = List.hd w.Gen.vps in
  let r = Bdrmap.Pipeline.execute engine inputs ~vp in
  print_endline "# border map, scenario=tiny seed=7 vp=0";
  List.iter print_endline
    (Bdrmap.Output.links_to_lines r.Bdrmap.Pipeline.graph
       r.Bdrmap.Pipeline.inference);
  Printf.printf "# probes=%d traces=%d\n"
    (Probesim.Engine.probe_count engine)
    (List.length r.Bdrmap.Pipeline.collection.Bdrmap.Collect.traces)
