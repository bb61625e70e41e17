(* Resiliency audit (§2 "Network Modeling and Resilience", figure 14):
   which destinations depend on a single egress router or a single
   next-hop AS? A border map makes the question answerable: prefixes
   with one exit point are the fragile ones.

   Run with: dune exec examples/resilience_audit.exe *)

module Gen = Topogen.Gen
module Net = Topogen.Net
open Netcore

let () =
  let params = Topogen.Scenario.large_access ~scale:0.2 () in
  let env = Experiments.Exp_common.make params in
  let w = env.world in
  let host_org =
    Option.value ~default:"host" (Bgpdata.As2org.org_of w.as2org w.host_asn)
  in
  let prefixes = Experiments.Exp_common.external_prefixes env in
  Printf.printf "resiliency audit: %d prefixes, %d VPs\n\n" (List.length prefixes)
    (List.length w.vps);

  (* For each prefix, the set of egress routers and next-hop ASes that
     can carry traffic toward it from anywhere in the network. *)
  let fragile = ref [] and single_as = ref [] and total = ref 0 in
  List.iter
    (fun (p, dst) ->
      let routers = ref [] and nexthops = ref Asn.Set.empty in
      List.iter
        (fun vp ->
          match Experiments.Exp_common.crossing_link env ~vp ~dst with
          | None -> ()
          | Some l ->
            let ra = Net.router w.net (fst l.Net.a) in
            let rb = Net.router w.net (fst l.Net.b) in
            let near, far =
              if
                Option.value ~default:""
                  (Bgpdata.As2org.org_of w.as2org ra.Net.owner)
                = host_org
              then (ra, rb)
              else (rb, ra)
            in
            routers := near.Net.rid :: !routers;
            nexthops := Asn.Set.add far.Net.owner !nexthops)
        w.vps;
      let distinct = List.length (List.sort_uniq compare !routers) in
      if distinct > 0 then begin
        incr total;
        if distinct = 1 then fragile := p :: !fragile;
        if Asn.Set.cardinal !nexthops = 1 then single_as := p :: !single_as
      end)
    prefixes;

  Printf.printf "single egress router: %d/%d prefixes\n" (List.length !fragile) !total;
  Printf.printf "single next-hop AS:   %d/%d prefixes\n" (List.length !single_as) !total;

  (* The fragile prefixes, grouped by the neighbor they depend on. *)
  let by_neighbor = Hashtbl.create 32 in
  List.iter
    (fun p ->
      let origins = Routing.Bgp.origins env.shared.snapshot p in
      if not (Asn.Set.is_empty origins) then begin
        let o = Asn.Set.min_elt origins in
        Hashtbl.replace by_neighbor o
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_neighbor o))
      end)
    !fragile;
  let worst =
    Hashtbl.fold (fun asn n acc -> (n, asn) :: acc) by_neighbor []
    |> List.sort compare |> List.rev
    |> List.filteri (fun i _ -> i < 8)
  in
  Printf.printf "\nmost exposed origin ASes (single-egress prefixes):\n";
  List.iter (fun (n, asn) -> Printf.printf "  %-10s %d prefixes\n" (Asn.to_string asn) n) worst;
  Printf.printf
    "\n(the paper found <2%% of Internet prefixes single-exit for this ISP;\n\
    \ direct single-homed customers dominate the fragile set)\n"
