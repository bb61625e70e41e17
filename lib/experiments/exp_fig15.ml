module Gen = Topogen.Gen
module Net = Topogen.Net

type series = {
  neighbor : string;
  total_links : int;
  cumulative : int list;
}

type t = { n_vps : int; series : series list }

module Int_set = Set.Make (Int)

let run ?(scale = 1.0) ?pool ?store () =
  let params = Topogen.Scenario.large_access ~scale () in
  (* Destination composition matters for path diversity: the measured
     Internet is dominated by remote prefixes, not direct customers. *)
  let params = { params with Topogen.Gen.n_remote = params.Topogen.Gen.n_remote * 3 } in
  let env = Exp_common.make ?store params in
  let w = env.Exp_common.world in
  let prefixes = Exp_common.external_prefixes env in
  (* Links out of the host crossed from each VP, per neighbor org. *)
  let per_vp =
    List.map
      (fun links ->
        List.filter_map (Option.map (fun (l : Net.link) -> l.Net.lid)) links
        |> List.sort_uniq compare)
      (Exp_common.crossing_links_by_vp ?pool ?store env prefixes)
  in
  let targets =
    (Printf.sprintf "level3-like (AS%d)" w.Gen.big_peer, Exp_common.org_of env w.Gen.big_peer)
    :: List.mapi
         (fun i asn ->
           let style =
             match i mod 3 with
             | 0 -> "akamai-like"
             | 1 -> "google-like"
             | _ -> "cdn"
           in
           (Printf.sprintf "%s (AS%d)" style asn, Exp_common.org_of env asn))
         w.Gen.cdn_peers
  in
  let series =
    List.map
      (fun (label, org) ->
        let truth =
          List.map (fun (l : Net.link) -> l.Net.lid) (Exp_common.host_links_to env ~neighbor_org:org)
        in
        let truth_set = Int_set.of_list truth in
        (* Cumulative union over VPs as a set fold: the former
           append/sort_uniq pair re-sorted the whole union per VP. *)
        let cumulative =
          List.rev
            (snd
               (List.fold_left
                  (fun (seen, acc) vp_links ->
                    let seen =
                      List.fold_left
                        (fun seen l ->
                          if Int_set.mem l truth_set then Int_set.add l seen
                          else seen)
                        seen vp_links
                    in
                    (seen, Int_set.cardinal seen :: acc))
                  (Int_set.empty, []) per_vp))
        in
        { neighbor = label; total_links = Int_set.cardinal truth_set; cumulative })
      targets
  in
  { n_vps = List.length w.Gen.vps; series }

let print ppf t =
  Format.fprintf ppf "== Experiment F15: marginal utility of VPs (fig 15) ==@.";
  Format.fprintf ppf "%-28s %6s  cumulative links by #VPs (1..%d)@." "neighbor" "total"
    t.n_vps;
  List.iter
    (fun s ->
      Format.fprintf ppf "%-28s %6d " s.neighbor s.total_links;
      List.iter (fun c -> Format.fprintf ppf " %3d" c) s.cumulative;
      let vps_needed =
        let rec go i = function
          | [] -> i
          | c :: rest -> if c >= s.total_links then i + 1 else go (i + 1) rest
        in
        go 0 s.cumulative
      in
      Format.fprintf ppf "  (all links at %d VPs)@." vps_needed)
    t.series
