(* Congestion-probing target list (the paper's motivating application,
   §2): the CAIDA/MIT interdomain congestion project probes the near and
   far side of every interdomain link with time-series latency probes
   (TSLP). The hard part is knowing WHICH address pairs straddle a
   border — exactly what bdrmap infers.

   This example runs bdrmap on the R&E scenario and emits one probing
   assignment per inferred link: the near-side router address (inside the
   hosting network) and the far-side address (the neighbor's router).

   Run with: dune exec examples/congestion_targets.exe *)

module Gen = Topogen.Gen
open Netcore

type assignment = {
  neighbor : Asn.t;
  near : Ipv4.t option;
  far : Ipv4.t option;
  confidence : string;
}

let () =
  let world = Gen.generate (Topogen.Scenario.r_and_e ~scale:0.5 ()) in
  let shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup world in
  let vp = List.hd world.vps in
  let run = Bdrmap.Pipeline.execute engine inputs ~vp in

  let assignments =
    List.map
      (fun (l : Bdrmap.Heuristics.border_link) ->
        let first_addr = function
          | None -> None
          | Some id -> (
            match Bdrmap.Rgraph.all_addrs run.graph id with
            | a :: _ -> Some a
            | [] -> None)
        in
        let confidence =
          (* Links identified from direct router evidence are better
             probing anchors than silent placements. *)
          match l.tag with
          | Bdrmap.Heuristics.T4_onenet | Bdrmap.Heuristics.T5_relationship -> "high"
          | Bdrmap.Heuristics.T8_silent | Bdrmap.Heuristics.T8_other_icmp -> "low"
          | _ -> "medium"
        in
        { neighbor = l.neighbor; near = first_addr l.near_node;
          far = first_addr l.far_node; confidence })
      run.inference.links
  in

  Printf.printf "# TSLP probing assignments: one line per inferred interdomain link\n";
  Printf.printf "# neighbor, near-side target, far-side target, confidence\n";
  List.iter
    (fun a ->
      let str = function
        | Some addr -> Ipv4.to_string addr
        | None -> "-"
      in
      Printf.printf "%-10s %-16s %-16s %s\n" (Asn.to_string a.neighbor) (str a.near)
        (str a.far) a.confidence)
    assignments;

  (* Summary per neighbor: how many links would be monitored. *)
  let by_neighbor = Hashtbl.create 16 in
  List.iter
    (fun a ->
      Hashtbl.replace by_neighbor a.neighbor
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_neighbor a.neighbor)))
    assignments;
  Printf.printf "\n%d links across %d neighbors; multi-link neighbors:\n"
    (List.length assignments) (Hashtbl.length by_neighbor);
  Hashtbl.iter
    (fun asn n -> if n > 1 then Printf.printf "  %s: %d links\n" (Asn.to_string asn) n)
    by_neighbor;

  (* Now the point of the exercise: monitor the inferred borders with
     time-series latency probes. Plant evening congestion on two true
     interdomain links and see whether monitoring the INFERRED address
     pairs finds them. *)
  let fwd2 =
    Routing.Forwarding.create world.net
      (Routing.Bgp.of_snapshot shared.Bdrmap.Pipeline.snapshot)
  in
  let engine2 = Probesim.Engine.create world fwd2 in
  let tslp = Probesim.Tslp.create engine2 fwd2 in
  let monitorable =
    List.filter (fun a -> a.near <> None && a.far <> None) assignments
  in
  let vp0 = List.hd world.vps in
  (* Pick monitored links whose probe path really crosses the true link
     behind the far address: those are the borders TSLP can watch. *)
  let link_of a =
    match a.far with
    | None -> None
    | Some far -> (
      match Topogen.Net.owner_of_addr world.net far with
      | None -> None
      | Some r ->
        List.find_map
          (fun (i : Topogen.Net.iface) ->
            let l = Topogen.Net.link world.net i.Topogen.Net.link in
            if Ipv4.equal i.Topogen.Net.addr far then Some l else None)
          r.Topogen.Net.ifaces)
  in
  let crosses a (l : Topogen.Net.link) =
    match a.far with
    | None -> false
    | Some far ->
      List.exists
        (fun (s : Routing.Forwarding.step) ->
          match s.Routing.Forwarding.in_link with
          | Some l' -> l'.Topogen.Net.lid = l.Topogen.Net.lid
          | None -> false)
        (Routing.Forwarding.path fwd2 ~src_rid:vp0.Gen.vp_rid ~dst:far ())
  in
  let congested_truth =
    List.filter_map
      (fun a ->
        match link_of a with
        | Some l when crosses a l -> Some (a, l)
        | _ -> None)
      monitorable
    |> List.filteri (fun i _ -> i mod 7 = 1)
  in
  List.iter
    (fun (_, (l : Topogen.Net.link)) ->
      Probesim.Tslp.congest tslp ~lid:l.Topogen.Net.lid ~peak_start_s:64800.0
        ~peak_end_s:86400.0 ~extra_ms:35.0)
    congested_truth;
  Printf.printf "\nTSLP monitoring (24h, hourly) of %d links; %d carry planted evening congestion:\n"
    (List.length monitorable) (List.length congested_truth);
  let detected = ref 0 and false_alarms = ref 0 in
  List.iter
    (fun a ->
      match (a.near, a.far) with
      | Some near, Some far -> (
        let samples =
          Probesim.Tslp.monitor tslp ~vp:vp0 ~near ~far ~interval_s:3600.0 ~samples:24
        in
        let truly_congested =
          List.exists (fun (a', _) -> a' == a) congested_truth
        in
        match Probesim.Tslp.diagnose samples with
        | Some shift ->
          if truly_congested then incr detected else incr false_alarms;
          Printf.printf "  %s <-> %s: CONGESTED (+%.0f ms)%s\n" (Ipv4.to_string near)
            (Ipv4.to_string far) shift
            (if truly_congested then "" else "  [false alarm]")
        | None ->
          if truly_congested then
            Printf.printf "  %s <-> %s: missed planted congestion\n"
              (Ipv4.to_string near) (Ipv4.to_string far))
      | _ -> ())
    monitorable;
  Printf.printf "detected %d/%d planted episodes, %d false alarms\n" !detected
    (List.length congested_truth) !false_alarms
