open Netcore
module Codec = Store.Codec
module Offload = Probesim.Offload

type share = { name : string; items : int; bytes : int; scaled : int }

type t = {
  shares : share list;
  standalone_bytes : int;
  device_bytes : int;
  to_device_bytes : int;
  to_controller_bytes : int;
  standalone_fits_whitebox : bool;
  split_fits_whitebox : bool;
}

type error = { stage : string; detail : string }

let error_to_string e = Printf.sprintf "resource experiment failed at %s: %s" e.stage e.detail

let ( let* ) = Result.bind

(* The global routing table the table-derived state is scaled to, and
   the RIPE Atlas / SamKnows whitebox device class's RAM. *)
let internet_prefixes = 600_000
let whitebox_ram = 32 * 1024 * 1024

let text_bytes = List.fold_left (fun n l -> n + String.length l + 1) 0

let image put =
  let w = Codec.writer 4096 in
  put w;
  let b, n = Codec.contents w in
  Bytes.sub_string b 0 n

(* (AS, addresses) rows: the target blocks and the stop set. *)
let rows_bytes rows =
  let put w (asn, addrs) =
    Codec.put_varint w asn;
    List.iter (fun a -> Codec.put_u32 w (Ipv4.to_int a)) addrs
  in
  String.length (image (fun w -> Codec.put_list w put rows))

let run ?(scale = 1.0) ?pool ?store () =
  let env = Exp_common.make ?store (Topogen.Scenario.large_access ~scale ()) in
  let* vp =
    match env.Exp_common.world.Topogen.Gen.vps with
    | vp :: _ -> Ok vp
    | [] -> Error { stage = "generate"; detail = "world has no vantage points" }
  in
  (* State is sized from a real collection run; going through
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
  let { Bdrmap.Pipeline.rib; rels; vp_asns; _ } = env.Exp_common.inputs in
  let ip2as = r.Bdrmap.Pipeline.ip2as and c = r.Bdrmap.Pipeline.collection in
  let blocks = Bdrmap.Targets.blocks ~rib ~vp_asns in
  (* The split: the same collection again on a fresh engine, every probe
     crossing the offload channel; all bdrmap state stays on this side. *)
  let channel = Offload.Channel.create () in
  let offloaded =
    let w = env.Exp_common.world and s = env.Exp_common.shared in
    let fwd =
      Routing.Forwarding.create ~plan:s.Bdrmap.Pipeline.plan w.Topogen.Gen.net
        (Routing.Bgp.of_snapshot s.Bdrmap.Pipeline.snapshot)
    in
    Bdrmap.Collect.run_with ~vp_name:(vp.Topogen.Gen.vp_name ^ "/offload")
      (Offload.remote channel (Probesim.Engine.create w fwd) ~vp)
      r.Bdrmap.Pipeline.cfg (Bdrmap.Ip2as.fresh ip2as) blocks
  in
  let collection = image (fun w -> Bdrmap.Collect.encode w c) in
  let* () =
    if String.equal collection (image (fun w -> Bdrmap.Collect.encode w offloaded)) then Ok ()
    else Error { stage = "offload"; detail = "collection encodes unlike the local run's" }
  in
  (* Collection drops its stop set when it returns; rebuild it. *)
  let stop (t : Bdrmap.Trace.t) =
    Option.map
      (fun a -> (t.target_asn, [ a ]))
      (Bdrmap.Collect.stop_entry ip2as (Aliasres.Alias_graph.addr c.aliases) t)
  in
  let stops = List.sort_uniq compare (List.filter_map stop c.traces) in
  (* The IP-AS table, relationship graph and target list scale with the
     global routing table; trace and alias state is processed per target
     AS and bounded by the hosting network's interconnection density, so
     it keeps its measured size. *)
  let prefixes = Bdrmap.Ip2as.routed_prefixes ip2as in
  let table name items bytes =
    { name; items; bytes; scaled = bytes * internet_prefixes / max 1 prefixes }
  in
  let per_run name items bytes = { name; items; bytes; scaled = bytes } in
  let size put = String.length (image put) in
  let traces = size (fun w -> Bdrmap.Trace.encode w c.Bdrmap.Collect.traces) in
  let aliases = size (fun w -> Aliasres.Alias_graph.encode w c.Bdrmap.Collect.aliases) in
  let block (b : Bdrmap.Targets.block) = (b.target_asn, [ b.first; b.last ]) in
  let shares =
    [ table "rib" prefixes (text_bytes (Bgpdata.Rib.to_lines rib));
      table "relationships" (Bgpdata.As_rel.edge_count rels)
        (text_bytes (Bgpdata.As_rel.to_lines rels));
      table "targets" (List.length blocks) (rows_bytes (List.map block blocks));
      per_run "traces" (List.length c.Bdrmap.Collect.traces) traces;
      per_run "aliases" c.Bdrmap.Collect.alias_pairs_tested aliases;
      per_run "stop set" (List.length stops) (rows_bytes stops);
      (* the rest of the collection: mates, ICMP replies, schedule, counters *)
      per_run "other run state"
        (List.length c.Bdrmap.Collect.mates + List.length c.Bdrmap.Collect.other_icmp)
        (String.length collection - traces - aliases) ]
  in
  let standalone_bytes = List.fold_left (fun n s -> n + s.scaled) 0 shares in
  let device_bytes = Offload.Channel.max_round_bytes channel in
  Ok
    { shares;
      standalone_bytes;
      device_bytes;
      to_device_bytes = Offload.Channel.bytes_to_device channel;
      to_controller_bytes = Offload.Channel.bytes_to_controller channel;
      standalone_fits_whitebox = standalone_bytes <= whitebox_ram;
      split_fits_whitebox = device_bytes <= whitebox_ram }

let print ppf t =
  let mb n = float_of_int n /. 1e6 in
  Format.fprintf ppf "== Experiment R2: resource-limited deployment (5.8) ==@.";
  Format.fprintf ppf "encoded bytes; rib, relationships and targets scaled to %d prefixes@."
    internet_prefixes;
  Format.fprintf ppf "%-16s %8s %10s %8s %10s@." "class" "items" "bytes" "B/item" "scaled";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-16s %8d %10d %8.1f %8.2fMB@." s.name s.items s.bytes
        (float_of_int s.bytes /. float_of_int (max 1 s.items))
        (mb s.scaled))
    t.shares;
  Format.fprintf ppf "standalone: device=%.1fMB (fits 32MB whitebox: %b)@."
    (mb t.standalone_bytes) t.standalone_fits_whitebox;
  Format.fprintf ppf
    "split:      device=%dB in flight controller=%.1fMB (fits 32MB whitebox: %b)@."
    t.device_bytes (mb t.standalone_bytes) t.split_fits_whitebox;
  Format.fprintf ppf "channel:    %.1fKB to device, %.1fKB to controller@."
    (mb t.to_device_bytes *. 1e3) (mb t.to_controller_bytes *. 1e3);
  Format.fprintf ppf
    "paper: standalone bdrmap ~150MB; scamper prober on device 3.5MB (11%% of 32MB)@."
