(* bdrmap command-line driver: generate a simulated world, run the
   collection/inference pipeline from a VP, validate against ground truth,
   and regenerate the paper's tables and figures. *)

open Cmdliner
module Gen = Topogen.Gen

(* Argument parsing: every value is validated in its [Arg.conv], so a bad
   value yields cmdliner's one-line error plus usage on stderr and the
   CLI-error exit code — never a crash or a silent no-op deep in a run. *)

let scenario_conv =
  let parse s =
    match Topogen.Scenario.by_name s with
    | Some f -> Ok (s, f)
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown scenario %S (expected r_and_e, large_access, tier1, small_access)"
             s))
  in
  Arg.conv (parse, fun ppf (name, _) -> Format.pp_print_string ppf name)

let scenario_arg =
  Arg.(
    required
    & opt (some scenario_conv) None
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:"Scenario preset: r_and_e, large_access, tier1 or small_access.")

let scale_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0.0 -> Ok f
    | Some _ ->
      Error (`Msg (Printf.sprintf "scale must be a finite number > 0, got %s" s))
    | None -> Error (`Msg (Printf.sprintf "invalid scale %S (expected a number)" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let scale_arg =
  Arg.(
    value & opt scale_conv 1.0
    & info [ "scale" ] ~docv:"F"
        ~doc:"Scale factor applied to neighbor counts (a finite number > 0).")

let seed_arg =
  Arg.(
    value & opt (some int) None
    & info [ "seed" ] ~docv:"N" ~doc:"Generator seed (default: the preset's).")

let vp_arg =
  Arg.(
    value & opt int 0
    & info [ "vp" ] ~docv:"I" ~doc:"Vantage point index (default 0).")

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "jobs must be >= 0, got %s" s))
    | None ->
      Error (`Msg (Printf.sprintf "invalid jobs count %S (expected an integer)" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value & opt jobs_conv 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~env:(Cmd.Env.info "BDRMAP_JOBS")
        ~doc:
          "Worker domains for multi-VP work (0 = one per recommended core). \
           Results are byte-identical whatever the value; only wall-clock \
           changes.")

(* 0 means auto: one domain per core the runtime recommends. A pool is
   only spun up when it can actually help. *)
let resolve_jobs n = if n >= 1 then n else max 1 (Domain.recommended_domain_count ())

let with_jobs n f =
  let n = resolve_jobs n in
  if n = 1 then f None
  else Netcore.Pool.with_pool ~domains:n (fun pool -> f (Some pool))

(* Run-store flags, shared by the commands that can reuse completed
   per-VP work. The store never changes what is computed — only whether
   it is recomputed — so stdout stays byte-identical with or without
   it. *)

let store_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "BDRMAP_STORE")
        ~doc:
          "Persistent run store: completed per-VP runs are checkpointed \
           under $(docv) and warm re-runs deserialize instead of \
           recomputing. Output is byte-identical either way.")

let no_store_arg =
  Arg.(
    value & flag
    & info [ "no-store" ]
        ~doc:"Ignore --store and $(b,BDRMAP_STORE); always recompute.")

let store_term =
  let mk dir no_store = if no_store then None else dir in
  Term.(const mk $ store_dir_arg $ no_store_arg)

let open_store dir =
  Option.map
    (fun d ->
      Obs.Log.info "run store at %s" d;
      Store.open_dir d)
    dir

let all_vps_arg =
  Arg.(
    value & flag
    & info [ "all-vps" ]
        ~doc:
          "Run the pipeline from every vantage point (in parallel under \
           --jobs) and merge the per-VP inferences into one border map.")

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "out" ] ~docv:"DIR" ~doc:"Directory for output artifacts.")

(* Observability flags, shared by every command. All of their output
   goes to stderr or to files: stdout carries only the inference
   results, byte-identical whatever is enabled here. *)

type obs_opts = {
  trace : string option;
  metrics : bool;
  manifest : string option;
  verbosity : int;
}

let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a JSONL trace (stage spans, per-router provenance, \
             per-heuristic fire counts) to $(docv).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Collect pipeline metrics and print a summary to stderr at exit.")
  in
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Write a run manifest (seed, scale, jobs, config hash, stage \
             timings, metric totals) to $(docv). With --trace or --metrics a \
             manifest.json is written even without this flag.")
  in
  let verbose =
    Arg.(
      value & flag_all
      & info [ "v"; "verbose" ]
          ~doc:"Increase log verbosity on stderr (repeat for debug).")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Log errors only.")
  in
  let mk trace metrics manifest verbose quiet =
    { trace;
      metrics;
      manifest;
      verbosity = (if quiet then -1 else List.length verbose) }
  in
  Term.(const mk $ trace $ metrics $ manifest $ verbose $ quiet)

let print_metrics_summary () =
  let ms = Obs.Metrics.collect () in
  Printf.eprintf "== metrics (%d) ==\n" (List.length ms);
  List.iter
    (fun (name, v) ->
      match v with
      | Obs.Metrics.Counter n -> Printf.eprintf "  %-36s %d\n" name n
      | Obs.Metrics.Gauge g -> Printf.eprintf "  %-36s %g\n" name g
      | Obs.Metrics.Histogram h ->
        Printf.eprintf "  %-36s count=%d sum=%g\n" name h.Obs.Metrics.h_count
          h.Obs.Metrics.h_sum)
    ms;
  flush stderr

(* [with_obs obs ... f] brackets a command with the observability
   lifecycle: verbosity, metrics gate and trace sink before [f]; metrics
   summary, manifest and sink teardown after (teardown also on raise).
   [config] is a stable rendering of the full configuration — only its
   hash lands in the manifest. *)
let with_obs obs ~command ~scale ~jobs ?seed ~config ?out_dir ?(extra = []) f =
  Obs.Log.set_verbosity obs.verbosity;
  let enabled = obs.trace <> None || obs.metrics || obs.manifest <> None in
  if enabled then Obs.Metrics.enable ();
  Option.iter
    (fun path ->
      Obs.Log.info "tracing to %s" path;
      Obs.Span.set_sink (Some (Obs.Span.file_sink path)))
    obs.trace;
  Fun.protect
    ~finally:(fun () -> Obs.Span.close_sink ())
    (fun () ->
      let r = f () in
      if obs.metrics then print_metrics_summary ();
      let manifest_path =
        match obs.manifest with
        | Some path -> Some path
        | None ->
          if enabled then
            Some (Filename.concat (Option.value ~default:"." out_dir) "manifest.json")
          else None
      in
      Option.iter
        (fun path ->
          Obs.Manifest.write ~path ~command ~scale ~jobs:(resolve_jobs jobs) ?seed
            ~config ~extra ();
          Obs.Log.info "wrote %s" path)
        manifest_path;
      r)

type scenario_fn = ?scale:float -> ?seed:int -> unit -> Gen.params

let params_of (scenario : scenario_fn) scale seed =
  match seed with
  | Some seed -> scenario ~scale ~seed ()
  | None -> scenario ~scale ()

let config_string ~command ~scenario ~scale ~seed ~jobs kvs =
  let base =
    [ ("command", command);
      ("scenario", scenario);
      ("scale", Printf.sprintf "%g" scale);
      ( "seed",
        match seed with Some s -> string_of_int s | None -> "preset" );
      ("jobs", string_of_int (resolve_jobs jobs)) ]
  in
  String.concat " "
    (List.map (fun (k, v) -> k ^ "=" ^ v) (base @ kvs))

(* Output artifacts are published atomically (Store.Envelope.publish):
   a failed command leaves either the complete file or nothing, never a
   torn artifact or a leaked fd. *)
let write_file path lines =
  Store.Envelope.publish path (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines);
  Printf.printf "wrote %s (%d lines)\n%!" path (List.length lines)

let setup_env ?store params =
  let world = Gen.generate params in
  let shared, _fwd, _engine, inputs = Bdrmap.Pipeline.setup ?store world in
  (world, shared, inputs)

(* generate: emit the public input artifacts of §5.2. *)
let generate (scenario_name, scenario) scale seed out obs =
  let config =
    config_string ~command:"generate" ~scenario:scenario_name ~scale ~seed ~jobs:1 []
  in
  with_obs obs ~command:"generate" ~scale ~jobs:1 ?seed ~config ?out_dir:out
    (fun () ->
      let params = params_of scenario scale seed in
      let world, _, inputs = setup_env params in
      let dir = Option.value ~default:"." out in
      write_file (Filename.concat dir "rib.txt") (Bgpdata.Rib.to_lines inputs.rib);
      write_file (Filename.concat dir "as-rel.txt")
        (Bgpdata.As_rel.to_lines inputs.rels);
      write_file (Filename.concat dir "ixp.txt") (Bgpdata.Ixp.to_lines inputs.ixp);
      write_file
        (Filename.concat dir "delegations.txt")
        (Bgpdata.Delegation.to_lines inputs.delegations);
      write_file (Filename.concat dir "as2org.txt")
        (Bgpdata.As2org.to_lines world.as2org);
      write_file
        (Filename.concat dir "vp-asns.txt")
        (List.map string_of_int (Netcore.Asn.Set.elements world.siblings));
      Printf.printf "world: %d ASes, %d routers, %d links, %d VPs\n"
        (List.length (Topogen.Net.ases world.net))
        (Topogen.Net.router_count world.net)
        (Topogen.Net.link_count world.net)
        (List.length world.vps))

let pick_vp (world : Gen.world) i =
  match List.nth_opt world.vps i with
  | Some vp -> vp
  | None ->
    failwith
      (Printf.sprintf "vp index %d out of range (%d VPs)" i (List.length world.vps))

(* run --all-vps: the deployed-system mode — every VP's pipeline on the
   domain pool, merged into one network-wide border map. Returns the
   merged map so `serve` can index it. *)
let run_all_vps ~shared world inputs store pool =
  let vps = world.Gen.vps in
  let domains = match pool with Some p -> Netcore.Pool.size p | None -> 1 in
  Printf.printf "running bdrmap from %d VPs on %d domain%s...\n%!" (List.length vps)
    domains
    (if domains = 1 then "" else "s");
  let t0 = Obs.Clock.now_ns () in
  let runs = Bdrmap.Pipeline.execute_all ?pool ?store ~shared world inputs ~vps in
  let merged =
    Bdrmap.Aggregate.merge_runs ?pool
      (List.map2
         (fun (vp : Gen.vp) (r : Bdrmap.Pipeline.run) ->
           (vp.Gen.vp_name, r.Bdrmap.Pipeline.graph, r.Bdrmap.Pipeline.inference))
         vps runs)
  in
  let dt = Obs.Clock.seconds_since t0 in
  Printf.printf "%d merged links across %d VPs in %.1fs\n" (List.length merged)
    (List.length vps) dt;
  let by_neighbor = Bdrmap.Aggregate.per_neighbor merged in
  List.iteri
    (fun i (asn, n) ->
      if i < 15 then
        Printf.printf "  AS%-8d %4d link%s\n" asn n (if n = 1 then "" else "s"))
    by_neighbor;
  if List.length by_neighbor > 15 then
    Printf.printf "  ... and %d more neighbors\n" (List.length by_neighbor - 15);
  let mu =
    Bdrmap.Aggregate.marginal_utility
      ~vp_order:(List.map (fun (vp : Gen.vp) -> vp.Gen.vp_name) vps)
      merged
  in
  Printf.printf "cumulative links by #VPs:";
  List.iter (Printf.printf " %d") mu;
  print_newline ();
  merged

(* run: the full pipeline, with validation and Table-1 reporting. *)
let run (scenario_name, scenario) scale seed vp_idx out all_vps jobs store_dir obs =
  let config =
    config_string ~command:"run" ~scenario:scenario_name ~scale ~seed ~jobs
      [ ("vp", string_of_int vp_idx); ("all_vps", string_of_bool all_vps) ]
  in
  let extra =
    match store_dir with Some d -> [ ("store", d) ] | None -> []
  in
  with_obs obs ~command:"run" ~scale ~jobs ?seed ~config ?out_dir:out ~extra
    (fun () ->
      let params = params_of scenario scale seed in
      let store = open_store store_dir in
      let world, shared, inputs = setup_env ?store params in
      if all_vps then
        with_jobs jobs (fun pool ->
            ignore (run_all_vps ~shared world inputs store pool))
      else begin
        let vp = pick_vp world vp_idx in
        Printf.printf "running bdrmap from %s...\n%!" vp.Gen.vp_name;
        (* Through execute_all even for one VP: the run gets a private
           engine (same bytes as the historical shared one, which was
           fresh here too) and can be checkpointed/warm-started. *)
        let r =
          match
            Bdrmap.Pipeline.execute_all ?store ~shared world inputs ~vps:[ vp ]
          with
          | [ r ] -> r
          | runs ->
            prerr_endline
              (Printf.sprintf "bdrmap: run: expected 1 pipeline run for 1 VP, got %d"
                 (List.length runs));
            exit 124
        in
        Format.printf "%a@." Probesim.Scheduler.pp r.collection.sched;
        let t1 =
          Bdrmap.Report.table1 ~rels:inputs.rels ~vp_asns:inputs.vp_asns r.inference
        in
        Bdrmap.Report.print ~title:("bdrmap @ " ^ vp.Gen.vp_name)
          Format.std_formatter t1;
        let s =
          Bdrmap.Validate.summarize (Bdrmap.Validate.links world r.graph r.inference)
        in
        Format.printf "ground truth: %a@." Bdrmap.Validate.pp_summary s;
        let cs = r.Bdrmap.Pipeline.cache in
        Printf.printf "engine: %d probes; path cache: %d hits, %d misses\n"
          r.Bdrmap.Pipeline.probes cs.Probesim.Engine.hits
          cs.Probesim.Engine.misses;
        match out with
        | None -> ()
        | Some dir ->
          write_file
            (Filename.concat dir "collection.txt")
            (Bdrmap.Output.collection_to_lines r.collection);
          write_file
            (Filename.concat dir "links.txt")
            (Bdrmap.Output.links_to_lines r.graph r.inference)
      end)

(* infer: re-run inference over a previously saved collection. *)
let infer (scenario_name, scenario) scale seed collection_file obs =
  let config =
    config_string ~command:"infer" ~scenario:scenario_name ~scale ~seed ~jobs:1
      [ ("collection", collection_file) ]
  in
  with_obs obs ~command:"infer" ~scale ~jobs:1 ?seed ~config (fun () ->
      let params = params_of scenario scale seed in
      let _world, _, inputs = setup_env params in
      let ic = open_in collection_file in
      let lines = ref [] in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            while true do
              lines := input_line ic :: !lines
            done
          with End_of_file -> ());
      match Bdrmap.Output.collection_of_lines (List.rev !lines) with
      | Error e -> prerr_endline e
      | Ok c ->
        let cfg = Bdrmap.Config.default ~vp_asns:inputs.vp_asns in
        let ip2as =
          Bdrmap.Ip2as.create ~rib:inputs.rib ~ixp:inputs.ixp
            ~delegations:inputs.delegations ~vp_asns:inputs.vp_asns
        in
        let g = Bdrmap.Rgraph.build c in
        let inf = Bdrmap.Heuristics.infer cfg ip2as ~rels:inputs.rels g c in
        List.iter print_endline (Bdrmap.Output.links_to_lines g inf);
        Printf.printf "# %d links from %d traces\n" (List.length inf.links)
          (List.length c.traces))

(* experiments: regenerate the paper's tables and figures. Names are
   validated at parse time against this list (keep it in sync with
   [all]/[extra] below), so an unknown name dies in cmdliner with a
   one-line error plus usage, not in the middle of a sweep. *)
let experiment_names =
  [ "table1"; "validation"; "fig14"; "fig15"; "fig16"; "runtime"; "resource";
    "baselines"; "ablation"; "robustness"; "corpus"; "longitudinal" ]

let experiment_conv =
  let parse s =
    if List.mem s experiment_names then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown experiment %S (expected one of %s)" s
             (String.concat ", " experiment_names)))
  in
  Arg.conv (parse, Format.pp_print_string)

let experiments scale names jobs store_dir obs =
  let config =
    config_string ~command:"experiments" ~scenario:"all" ~scale ~seed:None ~jobs
      [ ("names", if names = [] then "default" else String.concat "," names) ]
  in
  let extra =
    ("experiments", if names = [] then "default" else String.concat "," names)
    :: (match store_dir with Some d -> [ ("store", d) ] | None -> [])
  in
  with_obs obs ~command:"experiments" ~scale ~jobs ~config ~extra (fun () ->
      let store = open_store store_dir in
      with_jobs jobs (fun pool ->
          let all =
            [ ("table1", fun () -> Exp_print.table1 scale);
              ("validation", fun () -> Exp_print.validation scale);
              ("fig14", fun () -> Exp_print.fig14 ?pool ?store scale);
              ("fig15", fun () -> Exp_print.fig15 ?pool ?store scale);
              ("fig16", fun () -> Exp_print.fig16 ?pool ?store scale);
              ("runtime", fun () -> Exp_print.runtime scale);
              ("resource", fun () -> Exp_print.resource ?pool ?store scale);
              ("baselines", fun () -> Exp_print.baselines scale);
              ("ablation", fun () -> Exp_print.ablation scale) ]
          in
          (* Opt-in experiments: not part of the default sweep (the fault
             sweep repeats collection five times, and the default run's
             output is a golden artifact downstream). *)
          let extra =
            [ ("robustness", fun () -> Exp_print.robustness scale);
              ("corpus", fun () -> Exp_print.corpus scale);
              ("longitudinal", fun () -> Exp_print.longitudinal scale) ]
          in
          let chosen =
            match names with
            | [] -> all
            | names -> List.filter (fun (n, _) -> List.mem n names) (all @ extra)
          in
          List.iter
            (fun (n, f) ->
              Obs.Log.info "experiment %s" n;
              f ())
            chosen))

(* ------------------------------------------------------------------ *)
(* serve / query / serve-bench: the query service over the inferred    *)
(* border map (ROADMAP open item 1 — the paper's continuously          *)
(* maintained, operator-queryable artifact).                           *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let map_in_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "map" ] ~docv:"FILE"
        ~doc:
          "Serve a border map previously saved with --save-map instead of \
           re-running the inference pipeline (the routing snapshot is still \
           rebuilt from the scenario).")

let save_map_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-map" ] ~docv:"FILE"
        ~doc:"Save the merged border map artifact to $(docv) before serving.")

let load_mapfile ~verb path =
  match Bdrmap.Mapfile.load path with
  | Ok mf ->
    Printf.printf "%s border map %s: %d links, %d origin prefixes\n%!" verb path
      (List.length mf.Bdrmap.Mapfile.merged)
      (List.length mf.Bdrmap.Mapfile.origins);
    Ok mf
  | Error e ->
    Error (Printf.sprintf "%s: %s" path (Bdrmap.Mapfile.error_label e))

(* Build the query map a server answers from: the routing snapshot
   plus the all-VP merged border map (computed, or loaded from a saved
   artifact). Returns the snapshot too, so a SIGHUP reload can recompile
   a fresh map against it without re-freezing. *)
let build_qmap (world : Gen.world) store pool map_in save_map =
  let shared = Bdrmap.Pipeline.freeze_routing ?store world in
  let snapshot = shared.Bdrmap.Pipeline.snapshot in
  let mapfile =
    match map_in with
    | Some path -> (
      match load_mapfile ~verb:"loaded" path with
      | Ok mf -> mf
      | Error msg ->
        prerr_endline (Printf.sprintf "bdrmap: serve: %s" msg);
        exit 124)
    | None ->
      let bgp = Routing.Bgp.of_snapshot snapshot in
      let inputs = Bdrmap.Pipeline.inputs_of_world world bgp in
      let merged = run_all_vps ~shared world inputs store pool in
      Bdrmap.Mapfile.make ~host_asns:world.Gen.siblings ~bgp merged
  in
  Option.iter
    (fun path ->
      Bdrmap.Mapfile.save path mapfile;
      Printf.printf "saved border map to %s\n%!" path)
    save_map;
  (snapshot, Serve.Qmap.build ~snapshot mapfile)

let serve (scenario_name, scenario) scale seed jobs store_dir socket map_in save_map
    obs =
  let config =
    config_string ~command:"serve" ~scenario:scenario_name ~scale ~seed ~jobs
      [ ("socket", socket) ]
  in
  with_obs obs ~command:"serve" ~scale ~jobs ?seed ~config (fun () ->
      let params = params_of scenario scale seed in
      let world = Gen.generate params in
      let store = open_store store_dir in
      let snapshot, qmap =
        with_jobs jobs (fun pool -> build_qmap world store pool map_in save_map)
      in
      (* The exposition served on the METRICS opcode: a manifest
         rendered from the live metric shards, converted through the
         existing OpenMetrics pipeline. *)
      let exposition () =
        let text =
          Obs.Manifest.render ~command:"serve" ~scale ~jobs:(resolve_jobs jobs) ?seed
            ~config ()
        in
        match Obs.Json.parse text with
        | Error _ -> "# EOF\n"
        | Ok j -> (
          match Obs.Openmetrics.of_manifest j with
          | Ok t -> t
          | Error _ -> "# EOF\n")
      in
      (* SIGHUP hot-reload: with --map, re-read the (possibly replaced)
         artifact and recompile a Qmap against the same snapshot; a
         map that fails to parse keeps the current one serving. Without
         --map, re-run the (store-warm, deterministic) pipeline. Either
         way the swap happens in the event loop without dropping
         connections. *)
      let reload () =
        match map_in with
        | Some path -> (
          match load_mapfile ~verb:"reloaded" path with
          | Ok mf -> Some (Serve.Qmap.build ~snapshot mf)
          | Error msg ->
            prerr_endline
              (Printf.sprintf "bdrmap: serve: reload failed (%s); keeping current map" msg);
            None)
        | None -> Some (snd (build_qmap world store None None None))
      in
      let server = Serve.Server.create ~exposition ~reload ~path:socket qmap in
      let stop_on _ = Serve.Server.stop server in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on);
      Sys.set_signal Sys.sighup
        (Sys.Signal_handle (fun _ -> Serve.Server.request_reload server));
      Printf.printf "serving border map on %s (%d border addresses, host AS%d)\n%!"
        socket
        (Serve.Qmap.border_count qmap)
        (Serve.Qmap.host_asn qmap);
      Serve.Server.run server;
      let st = Serve.Server.stats server in
      Printf.printf
        "served %d queries in %d requests over %d connections (%d errors)\n"
        st.Serve.Server.queries st.Serve.Server.requests st.Serve.Server.connections
        st.Serve.Server.errors)

(* query: one-shot client over a running server's socket. *)
let query socket args =
  let fail msg =
    prerr_endline ("bdrmap: query: " ^ msg);
    exit 124
  in
  let addr_of s =
    match Netcore.Ipv4.of_string s with
    | Some a -> a
    | None -> fail (Printf.sprintf "invalid address %S" s)
  in
  let asn_of s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | _ -> fail (Printf.sprintf "invalid ASN %S" s)
  in
  match Serve.Client.connect socket with
  | Error e -> fail (Printf.sprintf "%s: %s" socket (Serve.Protocol.error_label e))
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        let check = function
          | Ok v -> v
          | Error e -> fail (Serve.Protocol.error_label e)
        in
        match args with
        | "owner" :: addrs when addrs <> [] ->
          let addrs = List.map addr_of addrs in
          let owners = check (Serve.Client.owner_batch c addrs) in
          List.iter2
            (fun a asn ->
              if asn = 0 then Printf.printf "%s unknown\n" (Netcore.Ipv4.to_string a)
              else Printf.printf "%s AS%d\n" (Netcore.Ipv4.to_string a) asn)
            addrs owners
        | [ "crossings"; a; b ] ->
          let lines = check (Serve.Client.crossings c (asn_of a) (asn_of b)) in
          if lines = [] then Printf.printf "no crossings between %s and %s\n" a b
          else List.iter print_endline lines
        | [ "provenance"; addr ] -> (
          match check (Serve.Client.provenance c (addr_of addr)) with
          | Some line -> print_endline line
          | None -> Printf.printf "%s unknown\n" addr)
        | [ "stats" ] ->
          let s = check (Serve.Client.stats c) in
          Printf.printf "queries %d\nrequests %d\nconnections %d\nerrors %d\n"
            s.Serve.Client.queries s.Serve.Client.requests s.Serve.Client.connections
            s.Serve.Client.errors
        | [ "metrics" ] -> print_string (check (Serve.Client.metrics_text c))
        | _ ->
          fail
            "expected: owner ADDR [ADDR...] | crossings ASN ASN | provenance ADDR \
             | stats | metrics")

let serve_bench (scenario_name, scenario) scale seed jobs store_dir batch seconds obs
    =
  let config =
    config_string ~command:"serve-bench" ~scenario:scenario_name ~scale ~seed ~jobs
      [ ("batch", string_of_int batch) ]
  in
  with_obs obs ~command:"serve-bench" ~scale ~jobs ?seed ~config (fun () ->
      let params = params_of scenario scale seed in
      let world = Gen.generate params in
      let store = open_store store_dir in
      let _, qmap =
        with_jobs jobs (fun pool -> build_qmap world store pool None None)
      in
      let r = Serve.Bench_load.run ~batch ~seconds qmap in
      Serve.Bench_load.print Format.std_formatter r)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the border-map query server: infer (or load) the all-VP merged \
          map, freeze the routing snapshot, and answer owner/crossings/\
          provenance queries over a Unix-domain socket until SIGTERM.")
    Term.(
      const serve $ scenario_arg $ scale_arg $ seed_arg $ jobs_arg $ store_term
      $ socket_arg $ map_in_arg $ save_map_arg $ obs_term)

let query_cmd =
  let args_pos =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"QUERY"
          ~doc:
            "owner ADDR [ADDR...] | crossings ASN ASN | provenance ADDR | stats \
             | metrics")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Query a running border-map server.")
    Term.(const query $ socket_arg $ args_pos)

let serve_bench_cmd =
  let batch_arg =
    let batch_conv =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 1 && (n * 4) + 1 <= Serve.Protocol.max_frame -> Ok n
        | Some n -> Error (`Msg (Printf.sprintf "batch out of range: %d" n))
        | None -> Error (`Msg (Printf.sprintf "invalid batch %S" s))
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    Arg.(
      value & opt batch_conv 512
      & info [ "batch" ] ~docv:"N" ~doc:"Owner queries per request frame.")
  in
  let seconds_arg =
    Arg.(
      value & opt float 0.5
      & info [ "seconds" ] ~docv:"S" ~doc:"Timed window length.")
  in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:
         "Measure the query server: spin it up in-process, drive batched owner \
          lookups, report qps, round-trip latency quantiles and server-side \
          minor-GC words per query.")
    Term.(
      const serve_bench $ scenario_arg $ scale_arg $ seed_arg $ jobs_arg
      $ store_term $ batch_arg $ seconds_arg $ obs_term)

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a world and write its public input artifacts.")
    Term.(
      const generate $ scenario_arg $ scale_arg $ seed_arg $ out_arg $ obs_term)

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the full bdrmap pipeline from a VP (or from every VP with \
          --all-vps, merged into one border map).")
    Term.(
      const run $ scenario_arg $ scale_arg $ seed_arg $ vp_arg $ out_arg
      $ all_vps_arg $ jobs_arg $ store_term $ obs_term)

let infer_cmd =
  let collection_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "collection" ] ~docv:"FILE" ~doc:"Saved collection file.")
  in
  Cmd.v
    (Cmd.info "infer" ~doc:"Run border inference over a saved collection.")
    Term.(
      const infer $ scenario_arg $ scale_arg $ seed_arg $ collection_arg $ obs_term)

let experiments_cmd =
  let names_arg =
    Arg.(
      value
      & pos_all experiment_conv []
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Experiments to run (default: all). One of %s."
               (String.concat ", " experiment_names)))
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures (default: all).")
    Term.(const experiments $ scale_arg $ names_arg $ jobs_arg $ store_term $ obs_term)

(* store ls / store gc: inspect and prune a run store. These take the
   directory as a required positional/option so they never depend on
   BDRMAP_STORE being set to something unexpected. *)

let store_dir_req =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "BDRMAP_STORE")
        ~doc:"Run store directory.")

let store_ls dir =
  let st = Store.open_dir dir in
  let es = Store.entries st in
  List.iter
    (fun (key, bytes, status) ->
      Printf.printf "%s %10d %s\n" key bytes
        (match status with
        | None -> "ok"
        | Some m -> Store.miss_label m))
    es;
  Printf.printf "%d entries in %s\n" (List.length es) (Store.dir st)

let store_gc all dir obs =
  let config = Printf.sprintf "command=store-gc\ndir=%s\nall=%b" dir all in
  with_obs obs ~command:"store gc" ~scale:1.0 ~jobs:1 ~config (fun () ->
      let st = Store.open_dir dir in
      let stats = Store.gc ~all st in
      Obs.Metrics.add "store.gc.entries_freed" stats.Store.gc_removed;
      Obs.Metrics.add "store.gc.bytes_freed" stats.Store.gc_bytes_freed;
      Printf.printf "%s: removed %d (%d bytes), kept %d\n" (Store.dir st)
        stats.Store.gc_removed stats.Store.gc_bytes_freed stats.Store.gc_kept)

let store_cmd =
  let ls =
    Cmd.v
      (Cmd.info "ls" ~doc:"List store entries with size and validity.")
      Term.(const store_ls $ store_dir_req)
  in
  let gc =
    let all =
      Arg.(
        value & flag
        & info [ "all" ] ~doc:"Remove valid entries too (empty the store).")
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Remove invalid entries (truncated, corrupt, stale, foreign \
            version) and orphaned temp files.")
      Term.(const store_gc $ all $ store_dir_req $ obs_term)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Inspect and prune a persistent run store.")
    [ ls; gc ]

(* obs report / diff / export: the read side of observability. These
   consume artifacts a previous run wrote (trace JSONL, manifest.json,
   BENCH.json) and never touch the pipeline, so they take plain file
   positionals rather than obs_term. *)

let obs_report canonical path =
  match Obs.Trace_reader.of_file path with
  | Error e ->
    Printf.eprintf "obs report: %s: %s\n" path (Obs.Trace_reader.error_to_string e);
    exit 1
  | Ok t ->
    List.iter print_endline
      (Obs.Trace_reader.report_lines ~volatile:(not canonical)
         (Obs.Trace_reader.summarize t))

let obs_diff wall_ratio rel a b =
  let load path =
    match Obs.Run_diff.of_file path with
    | Ok run -> run
    | Error msg ->
      Printf.eprintf "obs diff: %s: %s\n" path (Obs.Run_diff.error_to_string msg);
      exit 1
  in
  let ra = load a and rb = load b in
  if ra.Obs.Run_diff.kind <> rb.Obs.Run_diff.kind then begin
    Printf.eprintf "obs diff: cannot compare %s (%s) against %s (%s)\n" a
      (Obs.Run_diff.kind_label ra.Obs.Run_diff.kind)
      b
      (Obs.Run_diff.kind_label rb.Obs.Run_diff.kind);
    exit 1
  end;
  let findings = Obs.Run_diff.diff ~wall_ratio ~rel ra rb in
  List.iter
    (fun f -> print_endline (Obs.Run_diff.finding_to_string f))
    findings;
  let failing = List.filter Obs.Run_diff.failing findings in
  if failing <> [] then begin
    Printf.printf "FAIL: %d of %d compared rows regressed\n"
      (List.length failing)
      (List.length ra.Obs.Run_diff.rows);
    exit 1
  end
  else
    Printf.printf "ok: %d rows compared, no regressions\n"
      (List.length ra.Obs.Run_diff.rows)

let obs_export path =
  match Obs.Openmetrics.of_file path with
  | Ok text -> print_string text
  | Error msg ->
    Printf.eprintf "obs export: %s: %s\n" path msg;
    exit 1

let obs_cmd =
  let trace_pos =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"JSONL trace written by --trace.")
  in
  let canonical =
    Arg.(
      value & flag
      & info [ "canonical" ]
          ~doc:
            "Omit the wall-clock and GC columns, leaving only \
             deterministic output (for golden fixtures).")
  in
  let report =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Summarize a trace: per-VP / per-stage span tree with wall, \
            simulated-clock and allocation columns, heuristic fire counts \
            and event totals.")
      Term.(const obs_report $ canonical $ trace_pos)
  in
  let diff =
    let file_a =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"BASELINE" ~doc:"Baseline manifest.json or BENCH.json.")
    in
    let file_b =
      Arg.(
        required
        & pos 1 (some file) None
        & info [] ~docv:"CANDIDATE" ~doc:"Candidate manifest.json or BENCH.json.")
    in
    let wall_ratio =
      Arg.(
        value
        & opt float 1.5
        & info [ "wall-ratio" ] ~docv:"R"
            ~doc:
              "Fail a lower-is-better row only when the candidate exceeds \
               the baseline by this multiplier (plus its unit's slack and \
               spread); higher-is-better rows the other way round.")
    in
    let rel =
      Arg.(
        value
        & opt float 0.0
        & info [ "rel" ] ~docv:"R"
            ~doc:
              "Relative tolerance for exact rows (default 0: exact match \
               required).")
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two manifests or two BENCH.json files; exit nonzero \
            and name the offending row on any regression.")
      Term.(const obs_diff $ wall_ratio $ rel $ file_a $ file_b)
  in
  let export =
    let manifest_pos =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"MANIFEST" ~doc:"manifest.json written by a run.")
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:"Render a manifest as OpenMetrics/Prometheus text exposition.")
      Term.(const obs_export $ manifest_pos)
  in
  Cmd.group
    (Cmd.info "obs"
       ~doc:"Analyze observability artifacts from previous runs.")
    [ report; diff; export ]

let main =
  Cmd.group
    (Cmd.info "bdrmap_cli" ~version:"1.0.0"
       ~doc:"bdrmap: inference of borders between IP networks (IMC 2016) on a simulated Internet.")
    [ generate_cmd; run_cmd; infer_cmd; experiments_cmd; serve_cmd; query_cmd;
      serve_bench_cmd; store_cmd; obs_cmd ]

let () = exit (Cmd.eval main)
