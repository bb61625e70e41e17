(* The bdrmap benchmark. One process builds one world (the large access
   network scenario at scale 0.3, seeded from --seed), sets it up the
   way its workload's user would, then measures ops for --seconds and
   prints one JSON result line. README.md says why each workload exists
   and which layer each metric is meant to expose.

   Every time is read from the monotonic clock around a call into a
   layer's public functions. The heap is compacted before each timed op
   (outside the timed region), and each time is rescaled by a reference
   kernel run next to it (see "Reference kernel" below), because this
   host alternates between fast and slow phases that last seconds. *)

open Bdrmap
module Gen = Topogen.Gen
module Evolve = Topogen.Evolve
module Bgp = Routing.Bgp
module Fwd = Routing.Forwarding
module Engine = Probesim.Engine
module Q = Perfbench.Quant
module Sp = Perfbench.Spans
module Ck = Perfbench.Checks

let scale = 0.3
let pps = 100.0
let now = Sp.now
let ms_of_ns ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

type workload = Vp_run | Churn | Serve

let workload_of_string = function
  | "vp-run" -> Some Vp_run
  | "churn" -> Some Churn
  | "serve" -> Some Serve
  | _ -> None

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload vp-run|churn|serve --seed N --seconds S \
     --trace 0|1 [--out DIR]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref 22 and seconds = ref 20.0 in
  let trace = ref false and out_dir = ref ".bench_out" in
  let rec go = function
    | "--workload" :: v :: rest ->
      (match workload_of_string v with Some w -> workload := Some w | None -> usage ());
      go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := s
      | _ -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      go rest
    | "--out" :: v :: rest ->
      out_dir := v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some workload ->
    { workload; seed = !seed; seconds = !seconds; trace = !trace; out_dir = !out_dir }

(* ------------------------------------------------------------------ *)
(* Op accounting: every op is attempted once; a failed check or an
   exception counts it as failed.                                      *)

let attempted = ref 0
let failed = ref 0

let fail what msg =
  incr failed;
  if !failed <= 20 then Printf.eprintf "perfbench: %s failed: %s\n%!" what msg

let check what = function Ok () -> () | Error m -> fail what m

(* Growable sample buffers. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let floats ?(scale = 1.0) b = Array.init b.n (fun i -> float_of_int b.a.(i) *. scale)
end

(* Named sample lists for layer values of the traced run. *)
let layer_samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let note name v =
  Hashtbl.replace layer_samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt layer_samples name))

let noted name =
  Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt layer_samples name)))

(* Traced regions: a no-op without a tracer. *)
let sp tr name f =
  match tr with None -> f () | Some t -> Sp.with_span t (Sp.intern t name) f

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)

let params seed = Topogen.Scenario.large_access ~scale ~seed ()

type world_fx = {
  w : Gen.world;
  inputs : Pipeline.inputs;
  shared : Pipeline.shared;
  vp : Gen.vp;
}

(* The CLI `run` input path: generate, Pipeline.setup, freeze. *)
let world_fx ?tr seed =
  let w = sp tr "topogen" (fun () -> Gen.generate (params seed)) in
  let _, _, _, inputs = sp tr "input.setup" (fun () -> Pipeline.setup ~pps w) in
  let shared = sp tr "freeze_routing" (fun () -> Pipeline.freeze_routing w) in
  { w; inputs; shared; vp = List.hd w.Gen.vps }

let default_cfg fx = Config.default ~vp_asns:fx.inputs.Pipeline.vp_asns

type serve_fx = {
  store : Store.t;
  map_path : string;
  map_bytes : Bytes.t;  (** the cold sweep's map, as the restart must rebuild it *)
  qmap : Serve.Qmap.t;
  addrs : int array;  (** query order: [Qmap.sample_addrs] shuffled by seed *)
}

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let merge_of fx runs =
  Aggregate.merge_runs
    (List.map2
       (fun (vp : Gen.vp) (r : Pipeline.run) -> (vp.Gen.vp_name, r.graph, r.inference))
       fx.w.Gen.vps runs)

let mapfile_of fx merged =
  Mapfile.make ~host_asns:fx.w.Gen.siblings
    ~bgp:(Bgp.of_snapshot fx.shared.Pipeline.snapshot)
    merged

(* A cold serial sweep of every VP into a fresh run store (the store
   writes), then the border map and query index built from it. The
   traced form composes the sweep by hand so each store write gets a
   span; it performs the same computes and writes. *)
let serve_fx ?tr ~dir ~seed fx =
  rm_rf dir;
  let store = Store.open_dir dir in
  let runs =
    match tr with
    | None -> Pipeline.execute_all ~store ~shared:fx.shared ~pps fx.w fx.inputs ~vps:fx.w.Gen.vps
    | Some _ ->
      let cfg = default_cfg fx in
      List.map
        (fun vp ->
          let r =
            List.hd (Pipeline.execute_all ~cfg ~shared:fx.shared ~pps fx.w fx.inputs ~vps:[ vp ])
          in
          sp tr "store.save" (fun () ->
              Run_store.save store ~world:fx.w ~pps ~cfg ~vp
                { Run_store.collection = r.Pipeline.collection;
                  graph = r.graph;
                  inference = r.inference;
                  probes = r.probes;
                  cache = r.cache });
          r)
        fx.w.Gen.vps
  in
  let mapfile = mapfile_of fx (merge_of fx runs) in
  let qmap = Serve.Qmap.build ~snapshot:fx.shared.Pipeline.snapshot mapfile in
  let addrs = Array.map Netcore.Ipv4.to_int (Serve.Qmap.sample_addrs qmap) in
  let rng = Random.State.make [| seed |] in
  for i = Array.length addrs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = addrs.(i) in
    addrs.(i) <- addrs.(j);
    addrs.(j) <- t
  done;
  { store;
    map_path = Filename.concat dir "border.map";
    map_bytes = Mapfile.to_bytes mapfile;
    qmap;
    addrs }

type churn_fx = {
  evolved : Gen.world;
  old : Pipeline.shared;  (** pre-churn snapshot and plan *)
  churn : Bgp.churn;
  events : int;
}

(* One epoch of link and customer churn: the event classes whose
   re-freeze is copy-bound. Depeering and (de)aggregation re-propagate
   hundreds of prefixes, so a seed that drew them would measure a
   different workload; they are weighted out, and the seed picks the
   sites. *)
let churn_schedule seed =
  { Evolve.default_schedule with
    ev_seed = seed;
    w_depeer = 0.0;
    w_aggregate = 0.0;
    w_deaggregate = 0.0 }

let churn_fx ?tr seed =
  let w = sp tr "topogen" (fun () -> Gen.generate (params seed)) in
  let old = sp tr "freeze_routing" (fun () -> Pipeline.freeze_routing w) in
  let evolved, events =
    sp tr "evolve" (fun () -> Evolve.advance (churn_schedule seed) ~epoch:1 w)
  in
  { evolved; old; churn = Bgp.churn_of_events events; events = List.length events }

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)

(* vp-run: one VP's border map from the frozen routing state. *)
let vp_op fx =
  match Pipeline.execute_all ~shared:fx.shared ~pps fx.w fx.inputs ~vps:[ fx.vp ] with
  | [ r ] -> r
  | _ -> failwith "execute_all returned other than one run"

type probe_counts = {
  mutable trace_probes : int;
  mutable alias_probes : int;
  mutable replies : int;
  mutable alias_span : int;  (** -1 until the first alias-phase probe *)
}

(* The same composition as [Pipeline.execute_all ~shared ~vps:[vp]],
   with a span around each layer call. Collection gets a prober that
   wraps every callback in a "probesim" span; the first ping or UDP
   probe marks the start of the alias phase, which runs to the end of
   [Collect.run_with]. *)
let vp_traced tr fx =
  let id name = Sp.intern tr name in
  let probe_id = id "probesim" and alias_id = id "alias" in
  let root = Sp.enter tr (id "vp") in
  let inputs = fx.inputs in
  let cfg = default_cfg fx in
  let bgp = Bgp.of_snapshot fx.shared.Pipeline.snapshot in
  let fwd = Fwd.create ~plan:fx.shared.Pipeline.plan fx.w.Gen.net bgp in
  let engine = Engine.create ~pps fx.w fwd in
  let ip2as, blocks =
    Sp.with_span tr (id "input") (fun () ->
        ( Ip2as.create ~rib:inputs.Pipeline.rib ~ixp:inputs.ixp
            ~delegations:inputs.delegations ~vp_asns:inputs.vp_asns,
          Targets.blocks ~rib:inputs.rib ~vp_asns:inputs.vp_asns ))
  in
  let pc = { trace_probes = 0; alias_probes = 0; replies = 0; alias_span = -1 } in
  let local = Probesim.Prober.local engine ~vp:fx.vp in
  let timed f =
    let i = Sp.enter tr probe_id in
    let r = f () in
    Sp.leave tr i;
    if Option.is_some r then pc.replies <- pc.replies + 1;
    r
  in
  let alias_probe () =
    if pc.alias_span < 0 then pc.alias_span <- Sp.enter tr alias_id;
    pc.alias_probes <- pc.alias_probes + 1
  in
  let prober =
    { local with
      Probesim.Prober.trace_probe =
        (fun ~flow ~dst ~ttl ->
          pc.trace_probes <- pc.trace_probes + 1;
          timed (fun () -> local.trace_probe ~flow ~dst ~ttl));
      ping =
        (fun ~dst ->
          alias_probe ();
          timed (fun () -> local.ping ~dst));
      udp_probe =
        (fun ~dst ->
          alias_probe ();
          timed (fun () -> local.udp_probe ~dst)) }
  in
  let collection =
    Sp.with_span tr (id "collect") (fun () ->
        let c = Collect.run_with ~vp_name:fx.vp.Gen.vp_name prober cfg ip2as blocks in
        if pc.alias_span >= 0 then Sp.leave tr pc.alias_span;
        c)
  in
  let graph = Sp.with_span tr (id "graph") (fun () -> Rgraph.build collection) in
  let inference =
    Sp.with_span tr (id "heuristics") (fun () ->
        Heuristics.infer cfg ip2as ~rels:inputs.rels graph collection)
  in
  Sp.leave tr root;
  let run =
    { Pipeline.cfg;
      ip2as;
      inputs;
      collection;
      graph;
      inference;
      probes = Engine.probe_count engine;
      cache = Engine.stats engine }
  in
  (run, pc, List.length blocks)

let fresh_bgp (w : Gen.world) =
  Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
    ~selective:w.Gen.selective

(* churn: the incremental re-freeze of the epoch's batch against the
   pre-churn state; [old] is left unchanged, so every op is identical. *)
let refreeze_op ?tr cx =
  let w = cx.evolved in
  let bgp = fresh_bgp w in
  let snap, stats =
    sp tr "refreeze.bgp" (fun () -> Bgp.refreeze bgp ~old:cx.old.Pipeline.snapshot cx.churn)
  in
  let fwd = Fwd.create w.Gen.net (Bgp.of_snapshot snap) in
  let plan =
    sp tr "refreeze.fwd" (fun () ->
        Fwd.patch ~egress_for:w.Gen.siblings fwd ~old:cx.old.Pipeline.plan ~churn:cx.churn
          ~dirty:stats.Bgp.rf_dirty_prefixes)
  in
  (snap, plan, stats)

(* churn, second series: a scratch freeze of the evolved world. *)
let freeze_op ?tr cx =
  let w = cx.evolved in
  let bgp = fresh_bgp w in
  let snap =
    sp tr "freeze.bgp" (fun () -> Bgp.freeze ~counter:"routing.snapshot.scratch_builds" bgp)
  in
  let fwd = Fwd.create w.Gen.net (Bgp.of_snapshot snap) in
  let plan = sp tr "freeze.fwd" (fun () -> Fwd.freeze ~egress_for:w.Gen.siblings fwd) in
  (snap, plan)

(* serve, op A: restart the service from the warm store. *)
let restart_op fx sx =
  let runs =
    Pipeline.execute_all ~store:sx.store ~shared:fx.shared ~pps fx.w fx.inputs ~vps:fx.w.Gen.vps
  in
  let mapfile = mapfile_of fx (merge_of fx runs) in
  Mapfile.save sx.map_path mapfile;
  match Mapfile.load sx.map_path with
  | Error e -> failwith ("Mapfile.load: " ^ Mapfile.error_label e)
  | Ok m -> (m, Serve.Qmap.build ~snapshot:fx.shared.Pipeline.snapshot m)

(* The same restart composed by hand: a warm [execute_all] is a store
   load plus an [Ip2as.create] per VP. *)
let restart_traced tr fx sx =
  let tr' = Some tr in
  let root = Sp.enter tr (Sp.intern tr "restart") in
  let cfg = default_cfg fx in
  let inputs = fx.inputs in
  let hits = ref 0 in
  let triples =
    List.map
      (fun (vp : Gen.vp) ->
        let s =
          sp tr' "store.load" (fun () -> Run_store.load sx.store ~world:fx.w ~pps ~cfg ~vp)
        in
        ignore
          (sp tr' "input" (fun () ->
               Ip2as.create ~rib:inputs.Pipeline.rib ~ixp:inputs.ixp
                 ~delegations:inputs.delegations ~vp_asns:inputs.vp_asns));
        match s with
        | Some s ->
          incr hits;
          (vp.Gen.vp_name, s.Run_store.graph, s.Run_store.inference)
        | None -> failwith ("store miss for " ^ vp.Gen.vp_name))
      fx.w.Gen.vps
  in
  let merged = sp tr' "aggregate" (fun () -> Aggregate.merge_runs triples) in
  let mapfile = sp tr' "mapfile.make" (fun () -> mapfile_of fx merged) in
  sp tr' "mapfile.save" (fun () -> Mapfile.save sx.map_path mapfile);
  let loaded = sp tr' "mapfile.load" (fun () -> Mapfile.load sx.map_path) in
  let m =
    match loaded with
    | Error e -> failwith ("Mapfile.load: " ^ Mapfile.error_label e)
    | Ok m -> m
  in
  let q = sp tr' "qmap" (fun () -> Serve.Qmap.build ~snapshot:fx.shared.Pipeline.snapshot m) in
  Sp.leave tr root;
  (m, q, !hits, List.length merged)


(* ------------------------------------------------------------------ *)
(* Reference kernel                                                    *)

(* The host's speed drifts by up to 1.7x over tens of seconds, far
   slower than any op, and a whole run can fall in a slow phase. So
   every measured item (op, query burst, set-up) is preceded by one run
   of a fixed kernel that is benchmark code only — sorting a copy of a
   fixed 100,000-int array with polymorphic compare — and its time is
   rescaled by the mean of the kernel times just before and just after
   it: [t * k_nominal / k]. Values then read as times on a host where
   the kernel takes [k_nominal]. The program under test never runs
   inside the kernel, so no change to it can move the kernel. *)

let k_nominal_ns = 25e6

let kernel_data =
  lazy
    (let st = Random.State.make [| 1 |] in
     Array.init 100_000 (fun _ -> Random.State.bits st))

let kernel_ns () =
  let a = Array.copy (Lazy.force kernel_data) in
  let t0 = now () in
  Array.sort compare a;
  now () - t0

(* Kernel times in run order; an item records the index of the tick
   taken just before it, and the next tick closes its bracket. *)
let ticks = Buf.create ()

let tick () =
  Buf.push ticks (kernel_ns ());
  ticks.Buf.n - 1

let scale_of i =
  if i + 1 >= ticks.Buf.n then invalid_arg "scale_of: unclosed kernel bracket";
  k_nominal_ns /. (float_of_int (ticks.Buf.a.(i) + ticks.Buf.a.(i + 1)) /. 2.0)

(* ------------------------------------------------------------------ *)
(* Served queries                                                      *)

type segment_acc = {
  frame_ns : Buf.t;  (** exact per-frame round trips *)
  frame_tick : Buf.t;  (** the kernel tick of the burst each frame ran in *)
  mutable windows : (int * int * int) list;  (** window ns, answered queries, tick *)
  mutable spans : (int * int) list;  (** each segment's frames: [first, last) in [frame_ns] *)
  mutable frames : int;
  mutable errors : int;
  mutable words : int;  (** server minor words over the segments *)
  mutable words_queries : int;
}

let segment_acc () =
  { frame_ns = Buf.create ();
    frame_tick = Buf.create ();
    windows = [];
    spans = [];
    frames = 0;
    errors = 0;
    words = 0;
    words_queries = 0 }

(* Closed-loop owner queries at [batch] on one connection for
   [seconds] (and at least [min_frames] frames). Answers are kept and
   checked against [Qmap.owner] after the window, so checking costs
   the window nothing. *)
let segment ~tick sx client cursor ~batch ~seconds ~min_frames acc =
  let n_addrs = Array.length sx.addrs in
  let addrs = Array.make batch 0 and out = Array.make batch 0 in
  let fill () =
    for i = 0 to batch - 1 do
      addrs.(i) <- sx.addrs.(!cursor);
      cursor := if !cursor + 1 = n_addrs then 0 else !cursor + 1
    done
  in
  let frame () = Serve.Client.owner_batch_into client ~addrs ~n:batch ~out in
  (* The first frames at a batch size grow the connection's buffers. *)
  for _ = 1 to 4 do
    fill ();
    incr attempted;
    match frame () with
    | Ok () -> ()
    | Error e -> fail "warm-up frame" (Serve.Protocol.error_label e)
  done;
  let gc0 = Serve.Client.gc_stat client in
  let start_cursor = !cursor and first_frame = acc.frame_ns.Buf.n in
  let answers = Buf.create () and ok = Buf.create () in
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let t_start = now () in
  let t_end = ref t_start and frames = ref 0 in
  while !t_end < deadline || !frames < min_frames do
    fill ();
    let t0 = now () in
    let r = frame () in
    let t1 = now () in
    incr frames;
    (match r with
    | Ok () ->
      Buf.push acc.frame_ns (t1 - t0);
      Buf.push acc.frame_tick tick;
      Buf.push ok 1;
      for i = 0 to batch - 1 do
        Buf.push answers out.(i)
      done
    | Error _ ->
      Buf.push ok 0;
      for _ = 1 to batch do
        Buf.push answers 0
      done);
    t_end := t1
  done;
  let gc1 = Serve.Client.gc_stat client in
  acc.frames <- acc.frames + !frames;
  attempted := !attempted + !frames;
  (match (gc0, gc1) with
  | Ok g0, Ok g1 ->
    acc.words <- acc.words + (g1.Serve.Client.minor_words - g0.Serve.Client.minor_words);
    acc.words_queries <- acc.words_queries + (g1.queries_total - g0.queries_total)
  | Error e, _ | _, Error e -> fail "gcstat" (Serve.Protocol.error_label e));
  let answered = ref 0 and c = ref start_cursor in
  for f = 0 to !frames - 1 do
    if ok.Buf.a.(f) = 0 then begin
      acc.errors <- acc.errors + 1;
      fail (Printf.sprintf "batch-%d frame" batch) "error response";
      c := (!c + batch) mod n_addrs
    end
    else begin
      let bad = ref 0 in
      for i = 0 to batch - 1 do
        let a = sx.addrs.(!c) in
        c := if !c + 1 = n_addrs then 0 else !c + 1;
        if answers.Buf.a.((f * batch) + i) <> Serve.Qmap.owner sx.qmap (Netcore.Ipv4.of_int a)
        then incr bad
      done;
      answered := !answered + batch;
      if !bad > 0 then
        fail (Printf.sprintf "batch-%d frame" batch)
          (Printf.sprintf "%d owner answers differ from Qmap.owner" !bad)
    end
  done;
  acc.windows <- (!t_end - t_start, !answered, tick) :: acc.windows;
  acc.spans <- (first_frame, acc.frame_ns.Buf.n) :: acc.spans

(* One burst: start the server on its own domain, run a batch-1 then a
   batch-512 segment on one connection, stop the server. *)
let burst ~tick ~out_dir sx cursor ~b1_s ~b512_s b1 b512 =
  let path = Filename.concat out_dir (Printf.sprintf "q%d.sock" (Unix.getpid ())) in
  let server = Serve.Server.create ~path sx.qmap in
  let d = Domain.spawn (fun () -> Serve.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join d)
    (fun () ->
      match Serve.Client.connect path with
      | Error e ->
        incr attempted;
        fail "connect" (Serve.Protocol.error_label e)
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            segment ~tick sx c cursor ~batch:1 ~seconds:b1_s ~min_frames:1000 b1;
            segment ~tick sx c cursor ~batch:512 ~seconds:b512_s ~min_frames:300 b512))

(* Per-call cost of [Server.handle] on a socketless context. *)
let handle_ns qmap addrs ~batch ~calls =
  let ctx = Serve.Server.ctx_create qmap in
  let req = Bytes.create (1 + (4 * batch)) in
  Bytes.set req 0 (Char.chr Serve.Protocol.op_owner);
  for i = 0 to batch - 1 do
    Serve.Protocol.set_u32 req (1 + (4 * i)) addrs.(i mod Array.length addrs)
  done;
  let wb = Serve.Protocol.wbuf_create 65536 in
  let len = Bytes.length req in
  Serve.Server.handle ctx req ~off:0 ~len wb;
  let per_call =
    Array.init 21 (fun _ ->
        let t0 = now () in
        for _ = 1 to calls do
          Serve.Server.handle ctx req ~off:0 ~len wb
        done;
        float_of_int (now () - t0) /. float_of_int calls)
  in
  Q.middle per_call

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

type kind = K_vp | K_refreeze | K_freeze | K_restart | K_burst

let kind_name = function
  | K_vp -> "vp"
  | K_refreeze -> "refreeze"
  | K_freeze -> "freeze"
  | K_restart -> "restart"
  | K_burst -> "burst"

(* The other workloads' series run a fixed number of times, spread
   evenly over the window, so that every run reports every end-to-end
   metric; the workload's own series fills the time they leave. Twenty is what a
   median needs under the support rule; re-freezes are short and noisy,
   so they get more; scratch freezes take most of a second each, so
   only a handful run. *)
let own = function Vp_run -> K_vp | Churn -> K_refreeze | Serve -> K_restart

let scheduled workload =
  match workload with
  | Vp_run -> [ (K_freeze, 5); (K_refreeze, 50); (K_restart, 20); (K_burst, 10) ]
  | Churn -> [ (K_freeze, 5); (K_vp, 20); (K_restart, 20); (K_burst, 10) ]
  | Serve -> [ (K_freeze, 5); (K_refreeze, 50); (K_vp, 20); (K_burst, 12) ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      go ())

type metric = { name : string; unit_ : string; value : float }

let print_result metrics =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
       (!failed = 0) !attempted !failed);
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name m.value m.unit_))
    metrics;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)

let main a store_dir =
  let tracing = a.trace in
  let tag =
    Printf.sprintf "%s-%d-%d"
      (match a.workload with Vp_run -> "vp-run" | Churn -> "churn" | Serve -> "serve")
      a.seed (Unix.getpid ())
  in
  let setup_tr = if tracing then Some (Sp.create ()) else None in
  (* Set-up: the workload's own, repeated (it is deterministic) so that
     the median outvotes a slow phase; the traced run sets up once. *)
  let setup_reps = if tracing then 1 else 3 in
  let setup_items = Array.make setup_reps (0, 0) in
  let wfx = ref None and sfx = ref None and cfx = ref None in
  for i = 0 to setup_reps - 1 do
    wfx := None;
    sfx := None;
    cfx := None;
    Gc.compact ();
    let k = tick () in
    let t0 = now () in
    (match a.workload with
    | Vp_run -> wfx := Some (world_fx ?tr:setup_tr a.seed)
    | Churn -> cfx := Some (churn_fx ?tr:setup_tr a.seed)
    | Serve ->
      let fx = world_fx ?tr:setup_tr a.seed in
      wfx := Some fx;
      sfx := Some (serve_fx ?tr:setup_tr ~dir:store_dir ~seed:a.seed fx));
    setup_items.(i) <- (now () - t0, k)
  done;
  ignore (tick ());
  (* The other workloads' fixtures, built once and not counted in
     setup_s. *)
  let fx = match !wfx with Some f -> f | None -> world_fx ?tr:setup_tr a.seed in
  let sx =
    match !sfx with Some s -> s | None -> serve_fx ?tr:setup_tr ~dir:store_dir ~seed:a.seed fx
  in
  let cx = match !cfx with Some c -> c | None -> churn_fx ?tr:setup_tr a.seed in
  let op_tr = Sp.create () in
  let trace_oc =
    if tracing then Some (open_out (Filename.concat a.out_dir ("trace-" ^ tag ^ ".jsonl")))
    else None
  in
  Option.iter
    (fun oc -> Option.iter (fun t -> Sp.write_jsonl oc t ~op:"setup" ~req:0) setup_tr)
    trace_oc;
  let written = Hashtbl.create 8 in
  let req = ref 0 in
  (* Per kind: untraced op times (ns) with their kernel ticks, and
     traced op times. *)
  let times = Hashtbl.create 8 and op_ticks = Hashtbl.create 8 in
  let traced_times = Hashtbl.create 8 in
  let samples k tbl =
    match Hashtbl.find_opt tbl k with
    | Some b -> b
    | None ->
      let b = Buf.create () in
      Hashtbl.add tbl k b;
      b
  in
  let untraced k f =
    Gc.compact ();
    let g0 = if tracing then Some (Gc.quick_stat ()) else None in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    Buf.push (samples k times) (t1 - t0);
    Option.iter
      (fun (g0 : Gc.stat) ->
        let g1 = Gc.quick_stat () in
        let n = kind_name k in
        note ("gc." ^ n ^ ".minor_words") (g1.minor_words -. g0.minor_words);
        note ("gc." ^ n ^ ".major_words") (g1.major_words -. g0.major_words);
        note ("gc." ^ n ^ ".major_collections")
          (float_of_int (g1.major_collections - g0.major_collections)))
      g0;
    r
  in
  (* A traced op: spans recorded into [op_tr], then folded into layer
     self times; the first op of each kind is written out. What the
     layer spans do not cover (the root span's own self time, or the
     whole op minus its spans where there is no root) is the op's
     unattributed time. *)
  let traced k f =
    Gc.compact ();
    Sp.reset op_tr;
    let t0 = now () in
    let r = f op_tr in
    let t1 = now () in
    Buf.push (samples k traced_times) (t1 - t0);
    let n = kind_name k in
    let selves = Sp.self_by_name op_tr in
    List.iter
      (fun (name, self_ns) -> if name <> n then note (n ^ "/" ^ name) (ms_of_ns self_ns))
      selves;
    note ("unattributed." ^ n ^ "_pct")
      (100.0
      *. float_of_int (Sp.unattributed op_tr ~root:n ~total_ns:(t1 - t0))
      /. float_of_int (t1 - t0));
    (match trace_oc with
    | Some oc when not (Hashtbl.mem written k) ->
      Hashtbl.add written k ();
      incr req;
      Sp.write_jsonl oc op_tr ~op:n ~req:!req
    | _ -> ());
    r
  in
  (* The traced run times both forms of each op, alternating which
     goes first, and reports the difference as tracing overhead. *)
  let pair_no = ref 0 in
  let both k plain with_spans =
    incr pair_no;
    if !pair_no land 1 = 0 then begin
      let r = untraced k plain in
      (r, traced k with_spans)
    end
    else begin
      let t = traced k with_spans in
      (untraced k plain, t)
    end
  in
  (* Every op starts with a kernel tick; an exception counts the op as
     failed. *)
  let guard k what f =
    incr attempted;
    Buf.push (samples k op_ticks) (tick ());
    match f () with
    | () -> ()
    | exception e ->
      (* keep times and ticks aligned *)
      let t = samples k times and ti = samples k op_ticks in
      if t.Buf.n < ti.Buf.n then ti.Buf.n <- t.Buf.n;
      fail what (Printexc.to_string e)
  in
  let vp_ref = ref None and routing_ref = ref None in
  let reference_routing () =
    match !routing_ref with
    | Some r -> r
    | None ->
      let r = freeze_op cx in
      routing_ref := Some r;
      r
  in
  let run_vp () =
    guard K_vp "vp-run op" (fun () ->
        let r =
          if tracing then begin
            let r, (t, pc, blocks) = both K_vp (fun () -> vp_op fx) (fun tr -> vp_traced tr fx) in
            check "traced vp-run composition" (Ck.same_run ~expected:r t);
            let c = t.collection in
            note "input.blocks" (float_of_int blocks);
            note "probesim.trace_probes" (float_of_int pc.trace_probes);
            note "probesim.alias_probes" (float_of_int pc.alias_probes);
            note "probesim.reply_ratio"
              (float_of_int pc.replies /. float_of_int (max 1 (pc.trace_probes + pc.alias_probes)));
            let cs = t.cache in
            note "probesim.cache_hit_ratio"
              (float_of_int cs.Engine.hits /. float_of_int (max 1 (cs.hits + cs.misses)));
            let traces = List.length c.Collect.traces in
            note "collect.traces" (float_of_int traces);
            note "collect.stopset_hits" (float_of_int c.stopset_hits);
            note "collect.stop_ratio" (float_of_int c.stopset_hits /. float_of_int (max 1 traces));
            let merges =
              List.fold_left
                (fun acc g -> acc + List.length g - 1)
                0
                (Aliasres.Alias_graph.groups c.aliases)
            in
            note "alias.pairs" (float_of_int c.alias_pairs_tested);
            note "alias.found_ratio"
              (float_of_int merges /. float_of_int (max 1 c.alias_pairs_tested));
            note "graph.nodes" (float_of_int (Rgraph.node_count t.graph));
            note "heuristics.links" (float_of_int (List.length t.inference.Heuristics.links));
            r
          end
          else untraced K_vp (fun () -> vp_op fx)
        in
        match !vp_ref with
        | None -> vp_ref := Some r
        | Some expected -> check "vp-run op" (Ck.same_run ~expected r))
  in
  let run_refreeze () =
    guard K_refreeze "refreeze op" (fun () ->
        let snap, plan, stats =
          if tracing then
            fst (both K_refreeze (fun () -> refreeze_op cx) (fun tr -> refreeze_op ~tr cx))
          else untraced K_refreeze (fun () -> refreeze_op cx)
        in
        if tracing then begin
          note "refreeze.dirty" (float_of_int stats.Bgp.rf_dirty);
          note "refreeze.dirty_ratio"
            (float_of_int stats.rf_dirty /. float_of_int (max 1 stats.rf_total));
          note "refreeze.fallbacks" (if stats.rf_fallback then 1.0 else 0.0)
        end;
        check "refreeze op"
          (Ck.routing_equal ~scratch:(reference_routing ()) ~patched:(snap, plan)))
  in
  let run_freeze () =
    guard K_freeze "freeze op" (fun () ->
        let snap, plan =
          if tracing then fst (both K_freeze (fun () -> freeze_op cx) (fun tr -> freeze_op ~tr cx))
          else untraced K_freeze (fun () -> freeze_op cx)
        in
        if tracing then begin
          note "freeze.prefixes" (float_of_int (Bgp.Snapshot.prefix_count snap));
          note "freeze.asns" (float_of_int (Bgp.Snapshot.asn_count snap));
          note "freeze.arena_words" (float_of_int (Bgp.Snapshot.arena_length snap))
        end;
        match !routing_ref with
        | None -> routing_ref := Some (snap, plan)
        | Some reference ->
          check "freeze op" (Ck.routing_equal ~scratch:(snap, plan) ~patched:reference))
  in
  let run_restart () =
    guard K_restart "restart op" (fun () ->
        let m =
          if tracing then begin
            let (m, _), (tm, tq, hits, links) =
              both K_restart (fun () -> restart_op fx sx) (fun tr -> restart_traced tr fx sx)
            in
            check "traced restart"
              (Ck.same_bytes ~what:"traced restart map" ~expected:sx.map_bytes
                 (Mapfile.to_bytes tm));
            note "store.hit_ratio" (float_of_int hits /. float_of_int (List.length fx.w.Gen.vps));
            note "aggregate.links" (float_of_int links);
            note "qmap.borders" (float_of_int (Serve.Qmap.border_count tq));
            m
          end
          else fst (untraced K_restart (fun () -> restart_op fx sx))
        in
        check "restart op"
          (Ck.same_bytes ~what:"restarted map" ~expected:sx.map_bytes (Mapfile.to_bytes m)))
  in
  let b1 = segment_acc () and b512 = segment_acc () in
  let cursor = ref 0 in
  let b1_s, b512_s = if own a.workload = K_restart then (0.12, 0.12) else (0.08, 0.1) in
  let run_burst () =
    let tick = tick () in
    Gc.compact ();
    try burst ~tick ~out_dir:a.out_dir sx cursor ~b1_s ~b512_s b1 b512
    with e ->
      incr attempted;
      fail "query burst" (Printexc.to_string e)
  in
  let run = function
    | K_vp -> run_vp ()
    | K_refreeze -> run_refreeze ()
    | K_freeze -> run_freeze ()
    | K_restart -> run_restart ()
    | K_burst -> run_burst ()
  in
  (* The window: scheduled ops at evenly spaced due times (the first of
     each at the start, freeze first so re-freezes have their check
     reference), the workload's own ops in between, and own ops past
     the window until its series has the samples its summary needs. *)
  let seconds_ns = int_of_float (a.seconds *. 1e9) in
  let t_start = now () in
  let queue =
    List.concat_map
      (fun (k, count) -> List.init count (fun j -> (t_start + (j * seconds_ns / count), k)))
      (scheduled a.workload)
    |> List.stable_sort (fun (d1, _) (d2, _) -> compare d1 d2)
    |> ref
  in
  let own_k = own a.workload in
  let own_min = if tracing then 100 else 20 in
  let count k = match Hashtbl.find_opt times k with Some b -> b.Buf.n | None -> 0 in
  let deadline = t_start + seconds_ns and hard_stop = t_start + 120_000_000_000 in
  while (now () < deadline || count own_k < own_min) && now () < hard_stop do
    match !queue with
    | (due, k) :: rest when due <= now () ->
      queue := rest;
      run k
    | _ -> run own_k
  done;
  List.iter (fun (_, k) -> run k) !queue;
  ignore (tick ());
  Option.iter close_out trace_oc;
  let store_bytes =
    List.fold_left (fun acc (_, size, _) -> acc + size) 0 (Store.entries sx.store)
  in
  let map_size = (Unix.stat sx.map_path).Unix.st_size in
  (* Results. A summary that the support rule refuses, or a series with
     no samples, leaves the run without a result. *)
  let refused = ref false in
  let get what = function
    | Ok v -> v
    | Error e ->
      refused := true;
      Printf.eprintf "perfbench: %s: %s\n%!" what (Q.error_label e);
      nan
  in
  let raw_ms k = match Hashtbl.find_opt times k with Some b -> Buf.floats ~scale:1e-6 b | None -> [||] in
  let scaled_ms k =
    match (Hashtbl.find_opt times k, Hashtbl.find_opt op_ticks k) with
    | Some b, Some ti ->
      Array.init b.Buf.n (fun i -> float_of_int b.Buf.a.(i) *. scale_of ti.Buf.a.(i) /. 1e6)
    | _ -> [||]
  in
  let frames_us acc =
    Array.init acc.frame_ns.Buf.n (fun i ->
        float_of_int acc.frame_ns.Buf.a.(i) *. scale_of acc.frame_tick.Buf.a.(i) /. 1e3)
  in
  let qps acc =
    let q, s =
      List.fold_left
        (fun (q, s) (w, n, t) -> (q + n, s +. (float_of_int w *. scale_of t /. 1e9)))
        (0, 0.0) acc.windows
    in
    float_of_int q /. s
  in
  (* A stderr summary of every series: raw times, so a slow phase is
     visible, next to the kernel-scaled median the result reports. *)
  List.iter
    (fun k ->
      let xs = raw_ms k in
      if Array.length xs > 0 then begin
        let show q = match Q.quantile q xs with Ok v -> Printf.sprintf "%.3f" v | Error _ -> "-" in
        let scaled = scaled_ms k in
        Printf.eprintf
          "perfbench: %s n=%d raw min=%.3f p10=%s p50=%s p90=%s ms; scaled min=%.3f p50=%s ms\n%!"
          (kind_name k) (Array.length xs) (Q.minimum xs) (show 0.1) (show 0.5) (show 0.9)
          (Q.minimum scaled)
          (match Q.median scaled with Ok v -> Printf.sprintf "%.3f" v | Error _ -> "-")
      end)
    [ K_vp; K_refreeze; K_freeze; K_restart ];
  Printf.eprintf "perfbench: kernel n=%d median %.3f ms\n%!" ticks.Buf.n
    (Q.middle (Buf.floats ~scale:1e-6 ticks));
  let median_scaled k = get (kind_name k) (Q.median (scaled_ms k)) in
  let metrics =
    if not tracing then
      let b1_us = frames_us b1 in
      [ { name = "setup_s";
          unit_ = "s";
          value =
            Q.middle (Array.map (fun (ns, k) -> float_of_int ns *. scale_of k /. 1e9) setup_items) };
        { name = "peak_rss_mb"; unit_ = "MB"; value = peak_rss_mb () };
        { name = "vp_ms"; unit_ = "ms"; value = median_scaled K_vp };
        { name = "probes";
          unit_ = "count";
          value = (match !vp_ref with Some r -> float_of_int r.Pipeline.probes | None -> nan) };
        { name = "links_pct";
          unit_ = "%";
          value =
            (match !vp_ref with
            | Some r -> (Validate.summarize (Validate.links fx.w r.graph r.inference)).pct_correct
            | None -> nan) };
        { name = "routers_pct";
          unit_ = "%";
          value =
            (match !vp_ref with
            | Some r -> (Validate.router_accuracy fx.w r.graph r.inference).pct_correct
            | None -> nan) };
        { name = "refreeze_ms"; unit_ = "ms"; value = median_scaled K_refreeze };
        { name = "freeze_ms"; unit_ = "ms"; value = Q.middle (scaled_ms K_freeze) };
        { name = "restart_ms"; unit_ = "ms"; value = median_scaled K_restart };
        { name = "b1_p50_us"; unit_ = "us"; value = get "b1_p50" (Q.median b1_us) };
        { name = "b1_p99_us";
          unit_ = "us";
          value =
            Q.middle
              (Array.of_list
                 (List.map
                    (fun (a, b) -> get "b1_p99" (Q.p99 (Array.sub b1_us a (b - a))))
                    b1.spans)) };
        { name = "b512_qps"; unit_ = "1/s"; value = qps b512 } ]
    else begin
      let med name = Q.middle (noted name) in
      let med_or name d = if Hashtbl.mem layer_samples name then med name else d in
      let setup_ms name =
        match setup_tr with
        | None -> nan
        | Some t -> ms_of_ns (Option.value ~default:0 (List.assoc_opt name (Sp.self_by_name t)))
      in
      (* Paired: each traced op ran next to an untraced one. *)
      let overhead k =
        match (Hashtbl.find_opt times k, Hashtbl.find_opt traced_times k) with
        | Some u, Some t ->
          Q.middle
            (Array.init (min u.Buf.n t.Buf.n) (fun i -> ms_of_ns (t.Buf.a.(i) - u.Buf.a.(i))))
        | _ -> nan
      in
      let own_xs = raw_ms own_k in
      let b1_raw = Buf.floats ~scale:1e-3 b1.frame_ns in
      let b512_raw = Buf.floats ~scale:1e-3 b512.frame_ns in
      let handle_b1 = handle_ns sx.qmap sx.addrs ~batch:1 ~calls:20_000 in
      let handle_b512 = handle_ns sx.qmap sx.addrs ~batch:512 ~calls:100 in
      let b1_window_s = List.fold_left (fun s (w, _, _) -> s +. (float_of_int w /. 1e9)) 0.0 b1.windows in
      let b1_answered = List.fold_left (fun s (_, n, _) -> s + n) 0 b1.windows in
      let m name unit_ value = { name; unit_; value } in
      [ m "host.kernel_ms" "ms" (Q.middle (Buf.floats ~scale:1e-6 ticks));
        m "topogen.ms" "ms" (setup_ms "topogen");
        m "evolve.ms" "ms" (setup_ms "evolve");
        m "evolve.events" "count" (float_of_int cx.events);
        m "input.setup_ms" "ms" (setup_ms "input.setup");
        m "input.op_ms" "ms" (med "vp/input");
        m "input.restart_ms" "ms" (med "restart/input");
        m "input.blocks" "count" (med "input.blocks");
        m "freeze.bgp_ms" "ms" (med "freeze/freeze.bgp");
        m "freeze.fwd_ms" "ms" (med "freeze/freeze.fwd");
        m "freeze.prefixes" "count" (med "freeze.prefixes");
        m "freeze.asns" "count" (med "freeze.asns");
        m "freeze.arena_words" "words" (med "freeze.arena_words");
        m "refreeze.bgp_ms" "ms" (med "refreeze/refreeze.bgp");
        m "refreeze.fwd_ms" "ms" (med "refreeze/refreeze.fwd");
        m "refreeze.dirty" "count" (med "refreeze.dirty");
        m "refreeze.dirty_ratio" "ratio" (med "refreeze.dirty_ratio");
        m "refreeze.fallbacks" "count" (Array.fold_left ( +. ) 0.0 (noted "refreeze.fallbacks"));
        m "probesim.ms" "ms" (med "vp/probesim");
        m "probesim.trace_probes" "count" (med "probesim.trace_probes");
        m "probesim.alias_probes" "count" (med "probesim.alias_probes");
        m "probesim.reply_ratio" "ratio" (med "probesim.reply_ratio");
        m "probesim.cache_hit_ratio" "ratio" (med "probesim.cache_hit_ratio");
        m "collect.ms" "ms" (med "vp/collect");
        m "collect.traces" "count" (med "collect.traces");
        m "collect.stopset_hits" "count" (med "collect.stopset_hits");
        m "collect.stop_ratio" "ratio" (med "collect.stop_ratio");
        m "alias.ms" "ms" (med_or "vp/alias" 0.0);
        m "alias.pairs" "count" (med "alias.pairs");
        m "alias.probes" "count" (med "probesim.alias_probes");
        m "alias.found_ratio" "ratio" (med "alias.found_ratio");
        m "graph.ms" "ms" (med "vp/graph");
        m "graph.nodes" "count" (med "graph.nodes");
        m "heuristics.ms" "ms" (med "vp/heuristics");
        m "heuristics.links" "count" (med "heuristics.links");
        m "store.save_ms" "ms" (setup_ms "store.save");
        m "store.write_bytes" "B" (float_of_int store_bytes);
        m "store.load_ms" "ms" (med "restart/store.load");
        m "store.read_bytes" "B" (float_of_int store_bytes *. med "store.hit_ratio");
        m "store.hit_ratio" "ratio" (med "store.hit_ratio");
        m "aggregate.ms" "ms" (med "restart/aggregate");
        m "aggregate.links" "count" (med "aggregate.links");
        m "mapfile.make_ms" "ms" (med "restart/mapfile.make");
        m "mapfile.save_ms" "ms" (med "restart/mapfile.save");
        m "mapfile.load_ms" "ms" (med "restart/mapfile.load");
        m "mapfile.bytes" "B" (float_of_int map_size);
        m "qmap.ms" "ms" (med "restart/qmap");
        m "qmap.borders" "count" (med "qmap.borders");
        m "serve.handle_b1_ns" "ns" handle_b1;
        m "serve.handle_b512_us" "us" (handle_b512 /. 1e3);
        m "serve.transport_b1_us" "us" (get "b1_p50" (Q.median b1_raw) -. (handle_b1 /. 1e3));
        m "serve.b1_qps" "1/s" (float_of_int b1_answered /. b1_window_s);
        m "serve.b512_p50_us" "us" (get "b512_p50" (Q.median b512_raw));
        m "serve.b512_p99_us" "us" (get "b512_p99" (Q.p99 b512_raw));
        m "serve.frames" "count" (float_of_int (b1.frames + b512.frames));
        m "serve.error_frames" "count" (float_of_int (b1.errors + b512.errors));
        m "serve.words_per_query" "words"
          (float_of_int b1.words /. float_of_int (max 1 b1.words_queries)) ]
      @ List.concat_map
          (fun k ->
            let n = kind_name k in
            [ m ("gc." ^ n ^ ".minor_words") "words" (med ("gc." ^ n ^ ".minor_words"));
              m ("gc." ^ n ^ ".major_words") "words" (med ("gc." ^ n ^ ".major_words"));
              m ("gc." ^ n ^ ".major_collections") "count" (med ("gc." ^ n ^ ".major_collections"));
              m ("unattributed." ^ n ^ "_pct") "%" (med ("unattributed." ^ n ^ "_pct")) ])
          [ K_vp; K_refreeze; K_freeze; K_restart ]
      @ [ m "overhead.vp_ms" "ms" (overhead K_vp);
          m "overhead.refreeze_ms" "ms" (overhead K_refreeze);
          m "overhead.restart_ms" "ms" (overhead K_restart);
          m "op.p50_ms" "ms" (get "op p50" (Q.median own_xs));
          m "op.p90_ms" "ms" (get "op p90" (Q.p90 own_xs));
          m "op.n" "count" (float_of_int (Array.length own_xs)) ]
    end
  in
  List.iter
    (fun m -> if Float.is_nan m.value then Printf.eprintf "perfbench: %s has no value\n%!" m.name)
    metrics;
  if !refused || List.exists (fun m -> Float.is_nan m.value) metrics then begin
    prerr_endline "perfbench: a metric could not be computed; no result printed";
    raise Exit
  end;
  print_result metrics

let () =
  let a = parse_args () in
  (try Unix.mkdir a.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let store_dir = Filename.concat a.out_dir (Printf.sprintf "store-%d" (Unix.getpid ())) in
  match Fun.protect ~finally:(fun () -> rm_rf store_dir) (fun () -> main a store_dir) with
  | () -> ()
  | exception Exit -> exit 1
