(* check-obs-off: with no sink installed and metrics disabled, a full
   pipeline run must emit zero trace records and record zero metrics —
   the observability layer costs exactly one branch on hot paths. Run
   via `dune build @check-obs-off` (also attached to runtest). *)

let () =
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  Obs.Span.reset_emitted ();
  let w = Topogen.Gen.generate Topogen.Scenario.tiny in
  let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
  let vp = List.hd w.Topogen.Gen.vps in
  ignore (Bdrmap.Pipeline.execute engine inputs ~vp);
  let records = Obs.Span.records_emitted () in
  let metrics = Obs.Metrics.collect () in
  if records <> 0 then begin
    Printf.eprintf "check-obs-off: %d trace records emitted with no sink\n" records;
    exit 1
  end;
  if metrics <> [] then begin
    Printf.eprintf "check-obs-off: %d metrics recorded while disabled\n"
      (List.length metrics);
    exit 1
  end;
  print_endline "check-obs-off: ok (0 trace records, 0 metrics)"
