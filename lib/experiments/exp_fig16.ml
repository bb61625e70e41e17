module Gen = Topogen.Gen
module Net = Topogen.Net

type mark = { link_lid : int; lon : float; city : string }
type vp_row = { vp_name : string; vp_lon : float; marks : mark list }
type neighbor_plot = { neighbor : string; rows : vp_row list; total_links : int }
type t = neighbor_plot list

let run ?(scale = 1.0) ?pool ?store () =
  let params = Topogen.Scenario.large_access ~scale () in
  (* Destination composition matters for path diversity: the measured
     Internet is dominated by remote prefixes, not direct customers. *)
  let params = { params with Topogen.Gen.n_remote = params.Topogen.Gen.n_remote * 3 } in
  let env = Exp_common.make ?store params in
  let w = env.Exp_common.world in
  (* The paper geolocates the VP-side of each link from the reverse DNS
     of border interfaces; we do the same against the simulated PTR
     registry, falling back to the router record when unnamed. *)
  let dns = Topogen.Dns.build w.Gen.net ~seed:params.Topogen.Gen.seed in
  let host_org = Exp_common.org_of env w.Gen.host_asn in
  let prefixes = Exp_common.external_prefixes env in
  (* One crossing-link sweep per VP (domain-parallel under ?pool),
     reused for every neighbor plot below. *)
  let per_vp =
    List.combine w.Gen.vps (Exp_common.crossing_links_by_vp ?pool ?store env prefixes)
  in
  let targets =
    (Printf.sprintf "level3-like (AS%d)" w.Gen.big_peer, Exp_common.org_of env w.Gen.big_peer)
    :: List.filteri
         (fun i _ -> i < 2)
         (List.mapi
            (fun i asn ->
              let style = if i mod 3 = 0 then "akamai-like" else "google-like" in
              (Printf.sprintf "%s (AS%d)" style asn, Exp_common.org_of env asn))
            w.Gen.cdn_peers)
  in
  List.map
    (fun (label, org) ->
      let truth = Exp_common.host_links_to env ~neighbor_org:org in
      let truth_ids = List.map (fun (l : Net.link) -> l.Net.lid) truth in
      let rows =
        List.map
          (fun (vp, vp_links) ->
            let marks =
              List.fold_left
                (fun acc crossed ->
                  match crossed with
                  | Some (l : Net.link) when List.mem l.Net.lid truth_ids ->
                    if List.exists (fun m -> m.link_lid = l.Net.lid) acc then acc
                    else
                      let near, near_addr =
                        let ra = Net.router w.Gen.net (fst l.Net.a) in
                        if String.equal (Exp_common.org_of env ra.Net.owner) host_org
                        then (ra, snd l.Net.a)
                        else (Net.router w.Gen.net (fst l.Net.b), snd l.Net.b)
                      in
                      let city =
                        match
                          Option.bind (Topogen.Dns.lookup dns near_addr)
                            Topogen.Dns.parse_city
                        with
                        | Some c -> c
                        | None -> near.Net.city
                      in
                      { link_lid = l.Net.lid; lon = city.Topogen.Geo.lon;
                        city = city.Topogen.Geo.name }
                      :: acc
                  | _ -> acc)
                [] vp_links
            in
            { vp_name = vp.Gen.vp_name;
              vp_lon = vp.Gen.vp_city.Topogen.Geo.lon;
              marks = List.sort (fun a b -> Float.compare a.lon b.lon) marks })
          per_vp
      in
      { neighbor = label; rows; total_links = List.length truth_ids })
    targets

let print ppf t =
  Format.fprintf ppf "== Experiment F16: VP geography vs observed links (fig 16) ==@.";
  List.iter
    (fun plot ->
      Format.fprintf ppf "@.%s (%d links total)@." plot.neighbor plot.total_links;
      List.iter
        (fun row ->
          Format.fprintf ppf "  %-22s lon %7.1f | links:" row.vp_name row.vp_lon;
          List.iter (fun m -> Format.fprintf ppf " %7.1f" m.lon) row.marks;
          Format.fprintf ppf " (%d)@." (List.length row.marks))
        plot.rows)
    t
