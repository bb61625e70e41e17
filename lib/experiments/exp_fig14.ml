open Netcore
module Gen = Topogen.Gen
module Net = Topogen.Net

type t = {
  n_vps : int;
  n_prefixes : int;
  border_router_cdf : (int * float) list;
  nexthop_as_cdf : (int * float) list;
  pct_single_router : float;
  pct_5_to_15_routers : float;
  pct_over_15_routers : float;
  pct_single_nexthop : float;
  (* Same stats restricted to prefixes of non-neighbor networks: direct
     customers are vastly over-represented in the simulated world
     relative to the Internet's 500k prefixes, and they are single-exit
     by construction. *)
  remote : (float * float * float * float) option;
}

let cdf_of counts =
  let n = List.length counts in
  let sorted = List.sort compare counts in
  let tbl = Hashtbl.create 32 in
  List.iteri (fun i v -> Hashtbl.replace tbl v (float_of_int (i + 1) /. float_of_int n)) sorted;
  Hashtbl.fold (fun v f acc -> (v, f) :: acc) tbl [] |> List.sort compare

(* Destination composition matters for path diversity: the measured
   Internet is dominated by remote prefixes, not direct customers. *)
let params ~scale =
  let p = Topogen.Scenario.large_access ~scale () in
  { p with Topogen.Gen.n_remote = p.Topogen.Gen.n_remote * 3 }

let run ?(scale = 1.0) ?pool ?store () =
  let env = Exp_common.make ?store (params ~scale) in
  let w = env.Exp_common.world in
  let host_org = Exp_common.org_of env w.Gen.host_asn in
  let prefixes = Exp_common.external_prefixes env in
  let truth = Gen.host_neighbor_truth w in
  (* One crossing-link sweep per VP (domain-parallel under ?pool), then
     a per-prefix pass over the per-VP columns in fixed VP order. *)
  let per_vp =
    List.map Array.of_list (Exp_common.crossing_links_by_vp ?pool ?store env prefixes)
  in
  let per_prefix =
    List.mapi
      (fun idx (p, _dst) ->
        let routers = ref [] and nexthops = ref Asn.Set.empty in
        List.iter
          (fun links ->
            match links.(idx) with
            | None -> ()
            | Some (l : Net.link) ->
              let ra = Net.router w.Gen.net (fst l.Net.a) in
              let rb = Net.router w.Gen.net (fst l.Net.b) in
              let near, far =
                if String.equal (Exp_common.org_of env ra.Net.owner) host_org then (ra, rb)
                else (rb, ra)
              in
              routers := near.Net.rid :: !routers;
              nexthops := Asn.Set.add far.Net.owner !nexthops)
          per_vp;
        let origins =
          Routing.Bgp.origins env.Exp_common.shared.Bdrmap.Pipeline.snapshot p
        in
        let direct =
          Asn.Set.exists (fun o -> Asn.Map.mem o truth) origins
        in
        ( List.length (List.sort_uniq compare !routers),
          Asn.Set.cardinal !nexthops,
          direct ))
      prefixes
  in
  let per_prefix = List.filter (fun (r, _, _) -> r > 0) per_prefix in
  let n = List.length per_prefix in
  let router_counts = List.map (fun (r, _, _) -> r) per_prefix in
  let nexthop_counts = List.map (fun (_, a, _) -> a) per_prefix in
  let pct l f = 100.0 *. float_of_int (List.length (List.filter f l)) /. float_of_int (max 1 (List.length l)) in
  let remote_pp = List.filter (fun (_, _, direct) -> not direct) per_prefix in
  let stats l =
    ( pct l (fun (r, _, _) -> r = 1),
      pct l (fun (r, _, _) -> r >= 5 && r <= 15),
      pct l (fun (r, _, _) -> r > 15),
      pct l (fun (_, a, _) -> a = 1) )
  in
  let s1, s515, s15, snh = stats per_prefix in
  { n_vps = List.length w.Gen.vps;
    n_prefixes = n;
    border_router_cdf = cdf_of router_counts;
    nexthop_as_cdf = cdf_of nexthop_counts;
    pct_single_router = s1;
    pct_5_to_15_routers = s515;
    pct_over_15_routers = s15;
    pct_single_nexthop = snh;
    remote = (if remote_pp = [] then None else Some (stats remote_pp)) }

let print ppf t =
  Format.fprintf ppf "== Experiment F14: border-router / next-hop diversity (fig 14) ==@.";
  Format.fprintf ppf "%d VPs, %d prefixes@." t.n_vps t.n_prefixes;
  Format.fprintf ppf "border routers per prefix CDF:";
  List.iter (fun (v, f) -> Format.fprintf ppf " %d:%.2f" v f) t.border_router_cdf;
  Format.fprintf ppf "@.next-hop ASes per prefix CDF:";
  List.iter (fun (v, f) -> Format.fprintf ppf " %d:%.2f" v f) t.nexthop_as_cdf;
  Format.fprintf ppf
    "@.single border router: %.1f%% (paper <2%%)@.5-15 border routers: %.1f%% (paper 73%%)@."
    t.pct_single_router t.pct_5_to_15_routers;
  Format.fprintf ppf ">15 border routers: %.1f%% (paper 13%%)@." t.pct_over_15_routers;
  Format.fprintf ppf "single next-hop AS: %.1f%% (paper 67%%)@." t.pct_single_nexthop;
  match t.remote with
  | Some (s1, s515, s15, snh) ->
    Format.fprintf ppf
      "remote (non-neighbor) prefixes only: single=%.1f%% 5-15=%.1f%% >15=%.1f%% single-nexthop=%.1f%%@."
      s1 s515 s15 snh
  | None -> ()
