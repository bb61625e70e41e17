(* The §5.8 device/controller split: running collection through the
   serialized offload channel must produce the same inference as the
   local binding, with all bdrmap state on the controller side. *)

module Gen = Topogen.Gen
module Offload = Probesim.Offload
open Netcore

let test_request_roundtrip () =
  let reqs =
    [ Offload.Trace { flow = 3; dst = Ipv4.of_string_exn "1.2.3.4"; ttl = 7 };
      Offload.Ping (Ipv4.of_string_exn "9.8.7.6");
      Offload.Udp (Ipv4.of_string_exn "5.5.5.5");
      Offload.Advance 300.0 ]
  in
  List.iter
    (fun r ->
      match Offload.request_of_line (Offload.request_to_line r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error e -> Alcotest.fail e)
    reqs;
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Offload.request_of_line "X|nope"))

let test_response_roundtrip () =
  let replies =
    [ None;
      Some
        { Probesim.Engine.src = Ipv4.of_string_exn "1.2.3.4";
          kind = Probesim.Engine.Ttl_expired; ipid = 4242; responder = 99 } ]
  in
  List.iter
    (fun r ->
      match Offload.response_of_line (Offload.response_to_line r) with
      | Ok r' -> (
        match (r, r') with
        | None, None -> ()
        | Some a, Some b ->
          Alcotest.(check string) "src" (Ipv4.to_string a.Probesim.Engine.src)
            (Ipv4.to_string b.Probesim.Engine.src);
          Alcotest.(check int) "ipid" a.Probesim.Engine.ipid b.Probesim.Engine.ipid;
          (* The responder identity must NOT cross the wire. *)
          Alcotest.(check int) "responder hidden" (-1) b.Probesim.Engine.responder
        | _ -> Alcotest.fail "mismatch")
      | Error e -> Alcotest.fail e)
    replies

let test_offloaded_collection_equivalent () =
  let w = Gen.generate Topogen.Scenario.tiny in
  let vp = List.hd w.vps in
  let mk () =
    let bgp =
      Routing.Bgp.freeze
        (Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
           ~selective:w.Gen.selective)
    in
    let fwd = Routing.Forwarding.create w.Gen.net bgp in
    let engine = Probesim.Engine.create w fwd in
    let inputs = Bdrmap.Pipeline.inputs_of_world w bgp in
    (engine, inputs)
  in
  let collect prober inputs =
    let cfg = Bdrmap.Config.default ~vp_asns:inputs.Bdrmap.Pipeline.vp_asns in
    let ip2as =
      Bdrmap.Ip2as.create ~rib:inputs.Bdrmap.Pipeline.rib ~ixp:inputs.Bdrmap.Pipeline.ixp
        ~delegations:inputs.Bdrmap.Pipeline.delegations
        ~vp_asns:inputs.Bdrmap.Pipeline.vp_asns
    in
    let c = Bdrmap.Collect.run_with prober cfg ip2as
        (Bdrmap.Targets.blocks ~rib:inputs.Bdrmap.Pipeline.rib
           ~vp_asns:inputs.Bdrmap.Pipeline.vp_asns) in
    let g = Bdrmap.Rgraph.build c in
    (c, g, Bdrmap.Heuristics.infer cfg ip2as ~rels:inputs.Bdrmap.Pipeline.rels g c)
  in
  let engine1, inputs1 = mk () in
  let c1, _, local = collect (Probesim.Prober.local engine1 ~vp) inputs1 in
  let engine2, inputs2 = mk () in
  let channel = Offload.Channel.create () in
  let c2, _, remote = collect (Offload.remote channel engine2 ~vp) inputs2 in
  let encoded c =
    let w = Store.Codec.writer 4096 in
    Bdrmap.Collect.encode w c;
    let b, n = Store.Codec.contents w in
    Bytes.sub_string b 0 n
  in
  Alcotest.(check bool) "same collection bytes" true
    (String.equal (encoded c1) (encoded c2));
  let key (l : Bdrmap.Heuristics.border_link) =
    (l.neighbor, Bdrmap.Heuristics.tag_label l.tag)
  in
  Alcotest.(check int) "same link count"
    (List.length local.Bdrmap.Heuristics.links)
    (List.length remote.Bdrmap.Heuristics.links);
  Alcotest.(check bool) "same neighbor/tag multiset" true
    (List.sort compare (List.map key local.Bdrmap.Heuristics.links)
    = List.sort compare (List.map key remote.Bdrmap.Heuristics.links));
  (* The channel actually carried the probing session. *)
  Alcotest.(check bool) "messages flowed" true
    (Offload.Channel.messages channel > List.length c2.Bdrmap.Collect.traces);
  let kb_down = Offload.Channel.bytes_to_device channel / 1024 in
  let kb_up = Offload.Channel.bytes_to_controller channel / 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "traffic accounted (%dKB down, %dKB up)" kb_down kb_up)
    true
    (kb_down > 10 && kb_up > 10)

(* The wire format accepts exactly what its printers emit — nothing
   else. Each rejected line here was accepted by the pre-hardening
   parser (liberal stdlib numeric parsing, or arity-blind field reads)
   and would have produced a silently wrong request: a NaN clock
   advance, a ttl of 0 (which the engine indexes at steps.(-1)), a
   non-canonical address, an out-of-range IP-ID. *)
let test_strict_parsing () =
  let bad_requests =
    [ "A|nan"; "A|inf"; "A|-1.000"; "A|1e3"; "A|1.0"; "A|1.0000"; "A|.500";
      "A|01.000"; "A|300"; "T|1|1.2.3.4|0"; "T|1|1.2.3.4|256";
      "T|1|1.2.3.4|-1"; "T|01|1.2.3.4|5"; "T|0x1|1.2.3.4|5";
      "T|1_0|1.2.3.4|5"; "T|+1|1.2.3.4|5"; "T|1|01.2.3.4|5";
      "T|1|1.2.3.4|5|trailing"; "T|1|1.2.3.4"; "P|1.2.3.04"; "P|1.2.3.4|x";
      "U|"; "" ]
  in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "request %S rejected" line)
        true
        (Result.is_error (Offload.request_of_line line)))
    bad_requests;
  let bad_responses =
    [ "R|1.2.3.4|ttl|70000"; "R|1.2.3.4|ttl|-1"; "R|1.2.3.4|ttl|0xff";
      "R|1.2.3.4|bogus|1"; "R|01.2.3.4|ttl|1"; "R|1.2.3.4|ttl|1|extra";
      "R|1.2.3.4|ttl"; "N|trailing"; "" ]
  in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "response %S rejected" line)
        true
        (Result.is_error (Offload.response_of_line line)))
    bad_responses;
  (* And the canonical forms still parse. *)
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "request %S accepted" line)
        true
        (Result.is_ok (Offload.request_of_line line)))
    [ "A|0.000"; "A|300.000"; "T|0|1.2.3.4|1"; "T|0|1.2.3.4|255";
      "P|255.255.255.255"; "U|0.0.0.0" ]

(* Round-trip properties that would have caught the liberal parsers:
   any value a printer can emit must parse back to itself, and the
   printed line must be the fixpoint of parse-then-print. Advances are
   drawn on the wire's 1ms grid — the format deliberately carries "%.3f"
   (the engine's 5-minute Ally spacings and per-probe 1/pps steps are
   all millisecond-exact), so sub-millisecond floats are out of its
   domain. *)
let gen_addr =
  QCheck.Gen.(map (fun i -> Ipv4.of_int i) (int_bound 0xFFFFFFF))

let gen_request =
  QCheck.Gen.(
    frequency
      [ ( 3,
          map3
            (fun flow dst ttl -> Offload.Trace { flow; dst; ttl })
            (int_bound 9999) gen_addr (int_range 1 255) );
        (1, map (fun a -> Offload.Ping a) gen_addr);
        (1, map (fun a -> Offload.Udp a) gen_addr);
        ( 1,
          map
            (fun ms -> Offload.Advance (float_of_int ms /. 1000.0))
            (int_bound 1_000_000_000) ) ])

let arb_request =
  QCheck.make ~print:Offload.request_to_line gen_request

let prop_request_roundtrip =
  QCheck.Test.make ~name:"offload request wire roundtrip" ~count:500
    arb_request (fun r ->
      let line = Offload.request_to_line r in
      match Offload.request_of_line line with
      | Error _ -> false
      | Ok r' -> (
        String.equal (Offload.request_to_line r') line
        &&
        match (r, r') with
        | Offload.Advance a, Offload.Advance b ->
          (* exact: every 1ms-grid value below 1e6 s is float-exact
             through "%.3f" *)
          Float.equal a b
        | _ -> r = r'))

let gen_reply =
  QCheck.Gen.(
    oneof
      [ return None;
        map3
          (fun src kind ipid ->
            Some { Probesim.Engine.src; kind; ipid; responder = -1 })
          gen_addr
          (oneofl
             [ Probesim.Engine.Ttl_expired; Probesim.Engine.Echo_reply;
               Probesim.Engine.Dest_unreach ])
          (int_bound 0xFFFF) ])

let arb_reply = QCheck.make ~print:Offload.response_to_line gen_reply

let prop_response_roundtrip =
  QCheck.Test.make ~name:"offload response wire roundtrip" ~count:500
    arb_reply (fun r ->
      let line = Offload.response_to_line r in
      match Offload.response_of_line line with
      | Error _ -> false
      | Ok r' -> String.equal (Offload.response_to_line r') line && r = r')

let test_serve_error_path () =
  let w = Gen.generate Topogen.Scenario.tiny in
  let bgp =
    Routing.Bgp.freeze
      (Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
         ~selective:w.Gen.selective)
  in
  let fwd = Routing.Forwarding.create w.Gen.net bgp in
  let engine = Probesim.Engine.create w fwd in
  let vp = List.hd w.vps in
  let resp = Offload.serve engine ~vp "garbage" in
  Alcotest.(check bool) "error response" true (String.length resp > 1 && resp.[0] = 'E')

let suite =
  [ Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
    Alcotest.test_case "strict wire parsing" `Quick test_strict_parsing;
    Qc.to_alcotest prop_request_roundtrip;
    Qc.to_alcotest prop_response_roundtrip;
    Alcotest.test_case "offloaded collection equivalent" `Quick
      test_offloaded_collection_equivalent;
    Alcotest.test_case "serve error path" `Quick test_serve_error_path ]
