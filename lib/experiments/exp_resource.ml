type t = {
  inputs : Probesim.Remote.inputs;
  standalone : Probesim.Remote.footprint;
  split : Probesim.Remote.footprint;
  standalone_fits_whitebox : bool;
  split_fits_whitebox : bool;
}

type error = { stage : string; detail : string }

let error_to_string e = Printf.sprintf "resource experiment failed at %s: %s" e.stage e.detail

let ( let* ) = Result.bind

let run ?(scale = 1.0) ?pool ?store () =
  let env = Exp_common.make ?store (Topogen.Scenario.large_access ~scale ()) in
  let* vp =
    match env.Exp_common.world.Topogen.Gen.vps with
    | vp :: _ -> Ok vp
    | [] -> Error { stage = "generate"; detail = "world has no vantage points" }
  in
  (* Footprints are sized from a real collection run; going through
     execute_all gives the run a private engine so the numbers do not
     depend on what other experiments probed before us. *)
  let* r =
    (* The pipeline contract is one run per requested VP; anything else
       here means the sweep dropped or duplicated data, which we surface
       as a typed error rather than an assertion crash. *)
    match Exp_common.run_vps ?pool ?store env [ vp ] with
    | [ r ] -> Ok r
    | runs ->
      Error
        { stage = "vp-sweep";
          detail = Printf.sprintf "expected 1 run for 1 VP, got %d" (List.length runs) }
  in
  let c = r.Bdrmap.Pipeline.collection in
  let trace_hops =
    List.fold_left (fun acc t -> acc + List.length t.Bdrmap.Trace.hops) 0 c.Bdrmap.Collect.traces
  in
  (* Scale the artifact sizes to Internet scale: the real RIB has ~600k
     prefixes against our simulated view, same constant factors. *)
  let rib_n = Bdrmap.Ip2as.routed_prefixes r.Bdrmap.Pipeline.ip2as in
  let blow_up = 600_000 / max 1 rib_n in
  let inputs =
    (* The IP-AS trie, relationship graph and target list scale with the
       global routing table; trace and alias state is processed per
       target AS and bounded by the hosting network's interconnection
       density, so it keeps its measured size. *)
    { Probesim.Remote.routed_prefixes = rib_n * blow_up;
      as_rel_edges =
        Bgpdata.As_rel.edge_count env.Exp_common.inputs.Bdrmap.Pipeline.rels * blow_up;
      target_blocks = List.length c.Bdrmap.Collect.traces * blow_up;
      stopset_entries = c.Bdrmap.Collect.stopset_hits * 50;
      alias_pairs = c.Bdrmap.Collect.alias_pairs_tested * 50;
      trace_hops = trace_hops * 50 }
  in
  let standalone = Probesim.Remote.footprint Probesim.Remote.Standalone inputs in
  let split = Probesim.Remote.footprint Probesim.Remote.Split inputs in
  Ok
    { inputs;
      standalone;
      split;
      standalone_fits_whitebox =
        Probesim.Remote.fits ~ram_bytes:Probesim.Remote.whitebox_ram standalone;
      split_fits_whitebox = Probesim.Remote.fits ~ram_bytes:Probesim.Remote.whitebox_ram split }

let print ppf t =
  Format.fprintf ppf "== Experiment R2: resource-limited deployment (5.8) ==@.";
  Format.fprintf ppf "standalone: %a (fits 32MB whitebox: %b)@." Probesim.Remote.pp
    t.standalone t.standalone_fits_whitebox;
  Format.fprintf ppf "split:      %a (fits 32MB whitebox: %b)@." Probesim.Remote.pp t.split
    t.split_fits_whitebox;
  Format.fprintf ppf
    "paper: standalone bdrmap ~150MB; scamper prober on device 3.5MB (11%% of 32MB)@."
