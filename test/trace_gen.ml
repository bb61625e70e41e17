(* Golden-trace generator: the full pipeline on the fixed-seed tiny
   world, traced through a memory sink and canonicalized through the
   trace reader. Every remaining field — stage sequence,
   simulated-clock intervals, per-router provenance, per-heuristic fire
   counts — is deterministic, so `dune runtest` diffs this against
   golden_tiny_trace.txt and any change to stage structure or
   provenance shows up as a reviewable diff; `dune promote` accepts an
   intended change. *)

module Gen = Topogen.Gen

let () =
  let sink, drain = Obs.Span.memory_sink () in
  Obs.Span.set_sink (Some sink);
  let w = Gen.generate Topogen.Scenario.tiny in
  let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
  let vp = List.hd w.Gen.vps in
  ignore (Bdrmap.Pipeline.execute engine inputs ~vp);
  Obs.Span.set_sink None;
  print_endline "# trace, scenario=tiny seed=7 vp=0 (volatile fields stripped)";
  (* Round trip through the reader: volatile fields (wall_ns and the
     GC deltas) are classified by name, not by record position. *)
  match Obs.Trace_reader.of_lines (drain ()) with
  | Error e -> failwith (Obs.Trace_reader.error_to_string e)
  | Ok t ->
    if t.Obs.Trace_reader.truncated then failwith "unexpected truncated trace";
    List.iter
      (fun r -> print_endline (Obs.Trace_reader.canonical r))
      t.Obs.Trace_reader.records
