module Gen = Topogen.Gen
module Net = Topogen.Net

type row = {
  algorithm : string;
  links : int;
  neighbors : int;
  correct_pct : float;
}

type t = { scenario : string; rows : row list }

(* Judge a baseline link: the address claimed to sit on the neighbor's
   side must be on a router whose true owner's org matches. *)
let judge env (l : Bdrmap.Baselines.link) =
  let org asn = Exp_common.org_of env asn in
  let addr = Option.value ~default:l.Bdrmap.Baselines.near_addr l.Bdrmap.Baselines.far_addr in
  match Net.owner_of_addr env.Exp_common.world.Gen.net addr with
  | None -> `Unverifiable
  | Some r ->
    if String.equal (org r.Net.owner) (org l.Bdrmap.Baselines.neighbor) then `Correct
    else `Wrong

let score env links =
  let verdicts = List.map (judge env) links in
  let count v = List.length (List.filter (( = ) v) verdicts) in
  let verifiable = List.length links - count `Unverifiable in
  let neighbors =
    List.sort_uniq compare (List.map (fun (l : Bdrmap.Baselines.link) -> l.neighbor) links)
  in
  { algorithm = "";
    links = List.length links;
    neighbors = List.length neighbors;
    correct_pct =
      (if verifiable = 0 then 0.0
       else 100.0 *. float_of_int (count `Correct) /. float_of_int verifiable) }

let run ?(scale = 1.0) () =
  let params = Topogen.Scenario.r_and_e ~scale () in
  let env = Exp_common.make params in
  let vp = List.hd env.Exp_common.world.Gen.vps in
  let r = Exp_common.run_vp env vp in
  let ip2as = r.Bdrmap.Pipeline.ip2as in
  (* bdrmap's own links, scored with the same addr-level judge via the
     far node's first address. *)
  let bdrmap_links =
    List.filter_map
      (fun (l : Bdrmap.Heuristics.border_link) ->
        let addr_of = function
          | Some id -> (
            match Bdrmap.Rgraph.all_addrs r.Bdrmap.Pipeline.graph id with
            | a :: _ -> Some a
            | [] -> None)
          | None -> None
        in
        match addr_of l.Bdrmap.Heuristics.near_node with
        | None -> None
        | Some near ->
          Some
            { Bdrmap.Baselines.near_addr = near;
              far_addr = addr_of l.Bdrmap.Heuristics.far_node;
              neighbor = l.Bdrmap.Heuristics.neighbor })
      r.Bdrmap.Pipeline.inference.Bdrmap.Heuristics.links
  in
  let bdrmap_row =
    (* For bdrmap, silent links (no far addr) are judged through the full
       validator instead of the addr-level judge. *)
    let evals =
      Bdrmap.Validate.links env.Exp_common.world r.Bdrmap.Pipeline.graph
        r.Bdrmap.Pipeline.inference
    in
    let s = Bdrmap.Validate.summarize evals in
    { algorithm = "bdrmap";
      links = s.Bdrmap.Validate.total;
      neighbors =
        List.length
          (List.sort_uniq compare
             (List.map
                (fun (l : Bdrmap.Heuristics.border_link) -> l.Bdrmap.Heuristics.neighbor)
                r.Bdrmap.Pipeline.inference.Bdrmap.Heuristics.links));
      correct_pct = s.Bdrmap.Validate.pct_correct }
  in
  ignore bdrmap_links;
  let naive = Bdrmap.Baselines.naive_ipas ip2as r.Bdrmap.Pipeline.collection in
  let mapit = Bdrmap.Baselines.mapit ip2as r.Bdrmap.Pipeline.collection in
  { scenario = "R&E network";
    rows =
      [ bdrmap_row;
        { (score env naive) with algorithm = "naive IP-AS" };
        { (score env mapit) with algorithm = "MAP-IT style" } ] }

let print ppf t =
  Format.fprintf ppf "== Baseline comparison (%s) ==@." t.scenario;
  Format.fprintf ppf "%-14s %7s %10s %9s@." "algorithm" "links" "neighbors" "correct";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-14s %7d %10d %8.1f%%@." r.algorithm r.links r.neighbors
        r.correct_pct)
    t.rows;
  Format.fprintf ppf
    "(MAP-IT-style inference misses path-end borders - firewalled and@.\
    \ silent customers - roughly half the links, as the paper notes in 3)@."
