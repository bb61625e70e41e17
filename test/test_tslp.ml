module Gen = Topogen.Gen
module Net = Topogen.Net
module Tslp = Probesim.Tslp
open Netcore

let setup = lazy (
  let w = Gen.generate Topogen.Scenario.tiny in
  let bgp =
    Routing.Bgp.freeze
      (Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
         ~selective:w.Gen.selective)
  in
  let fwd = Routing.Forwarding.create w.Gen.net bgp in
  let engine = Probesim.Engine.create w fwd in
  (w, fwd, engine, Tslp.create engine fwd))

(* A border the VP's traffic actually crosses: probe a far interface. *)
let crossed_border (w : Gen.world) fwd =
  let vp = List.hd w.vps in
  List.find_map
    (fun (l : Net.link) ->
      if l.Net.kind = Net.Internal then None
      else
        let ra = Net.router w.Gen.net (fst l.Net.a) in
        let near, far =
          if Asn.equal ra.Net.owner w.host_asn then (l.Net.a, l.Net.b)
          else (l.Net.b, l.Net.a)
        in
        let near_r = Net.router w.Gen.net (fst near) in
        let far_r = Net.router w.Gen.net (fst far) in
        if not (Asn.equal near_r.Net.owner w.host_asn) then None
        else if (Net.as_node w.Gen.net far_r.Net.owner).Net.filter <> Net.Open then None
        else
          (* Only borders on the actual forwarding path toward the far
             address produce the near/far RTT contrast. *)
          let crosses =
            List.exists
              (fun (s : Routing.Forwarding.step) ->
                match s.Routing.Forwarding.in_link with
                | Some l' -> l'.Net.lid = l.Net.lid
                | None -> false)
              (Routing.Forwarding.path fwd ~src_rid:vp.Gen.vp_rid ~dst:(snd far) ())
          in
          if crosses then Some (vp, l, snd near, snd far) else None)
    (Net.interdomain_links w.Gen.net)

let test_rtt_far_exceeds_near () =
  let w, fwd, _, tslp = Lazy.force setup in
  match crossed_border w fwd with
  | None -> Alcotest.fail "no crossable border in tiny world"
  | Some (vp, _, near, far) -> (
    match (Tslp.rtt tslp ~vp ~dst:near, Tslp.rtt tslp ~vp ~dst:far) with
    | Some n, Some f ->
      Alcotest.(check bool) (Printf.sprintf "far %.2f >= near %.2f" f n) true (f >= n)
    | _ -> Alcotest.fail "rtt unavailable")

let test_congested_link_detected () =
  let w, fwd, engine, tslp = Lazy.force setup in
  match crossed_border w fwd with
  | None -> Alcotest.fail "no crossable border"
  | Some (vp, l, near, far) ->
    (* Install a daily episode covering the second half of the day. *)
    Tslp.congest tslp ~lid:l.Net.lid ~peak_start_s:43200.0 ~peak_end_s:86400.0
      ~extra_ms:40.0;
    ignore engine;
    let samples = Tslp.monitor tslp ~vp ~near ~far ~interval_s:3600.0 ~samples:24 in
    Alcotest.(check int) "24 samples" 24 (List.length samples);
    (match Tslp.diagnose samples with
    | Some shift ->
      Alcotest.(check bool) (Printf.sprintf "shift %.1f ~ 40ms" shift) true
        (shift > 20.0 && shift < 60.0)
    | None -> Alcotest.fail "congestion not detected")

let test_clean_link_not_flagged () =
  let w, fwd, _, _ = Lazy.force setup in
  (* Fresh stack to avoid the congestion installed above. *)
  let bgp =
    Routing.Bgp.freeze
      (Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
         ~selective:w.Gen.selective)
  in
  let fwd2 = Routing.Forwarding.create w.Gen.net bgp in
  let engine2 = Probesim.Engine.create w fwd2 in
  let tslp2 = Tslp.create engine2 fwd2 in
  ignore fwd;
  match crossed_border w fwd2 with
  | None -> Alcotest.fail "no crossable border"
  | Some (vp, _, near, far) ->
    let samples = Tslp.monitor tslp2 ~vp ~near ~far ~interval_s:3600.0 ~samples:24 in
    Alcotest.(check bool) "no false congestion" true (Tslp.diagnose samples = None)

let test_episode_respects_schedule () =
  let w, fwd, _, _ = Lazy.force setup in
  let bgp =
    Routing.Bgp.freeze
      (Routing.Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
         ~selective:w.Gen.selective)
  in
  let fwd2 = Routing.Forwarding.create w.Gen.net bgp in
  let engine2 = Probesim.Engine.create w fwd2 in
  let tslp2 = Tslp.create engine2 fwd2 in
  ignore fwd;
  match crossed_border w fwd2 with
  | None -> Alcotest.fail "no crossable border"
  | Some (vp, l, _, far) ->
    Tslp.congest tslp2 ~lid:l.Net.lid ~peak_start_s:3600.0 ~peak_end_s:7200.0
      ~extra_ms:50.0;
    (* Off-peak now (clock ~0): no extra delay. *)
    let off = Option.get (Tslp.rtt tslp2 ~vp ~dst:far) in
    Probesim.Engine.advance engine2 5000.0;
    let peak = Option.get (Tslp.rtt tslp2 ~vp ~dst:far) in
    Alcotest.(check bool)
      (Printf.sprintf "peak %.1f = off %.1f + 50" peak off)
      true
      (abs_float (peak -. off -. 50.0) < 1.0)

let suite =
  [ Alcotest.test_case "far rtt exceeds near" `Quick test_rtt_far_exceeds_near;
    Alcotest.test_case "congested link detected" `Quick test_congested_link_detected;
    Alcotest.test_case "clean link not flagged" `Quick test_clean_link_not_flagged;
    Alcotest.test_case "episode schedule" `Quick test_episode_respects_schedule ]
