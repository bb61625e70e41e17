open Netcore
module Gen = Topogen.Gen
module Net = Topogen.Net
module B = Bgpdata

type verdict =
  | Correct
  | Correct_sibling
  | Wrong_as of Asn.t
  | Not_border
  | Unverifiable

type link_eval = { link : Heuristics.border_link; verdict : verdict }

type summary = {
  total : int;
  correct : int;
  sibling : int;
  wrong : int;
  not_border : int;
  unverifiable : int;
  pct_correct : float;
}

let org_of (w : Gen.world) asn =
  match B.As2org.org_of w.Gen.as2org asn with
  | Some o -> o
  | None -> Printf.sprintf "unknown-%d" asn

let host_org (w : Gen.world) = org_of w w.Gen.host_asn

(* The true routers holding node [id]'s observed addresses. *)
let true_routers (w : Gen.world) g id =
  List.filter_map (Net.owner_of_addr w.Gen.net) (Rgraph.observed_addrs g id)

let true_owners w g id =
  List.fold_left
    (fun acc (r : Net.router) -> Asn.Set.add r.Net.owner acc)
    Asn.Set.empty (true_routers w g id)

let judge_far (w : Gen.world) g id inferred =
  let owners = true_owners w g id in
  if Asn.Set.is_empty owners then Unverifiable
  else
    let orgs =
      Asn.Set.fold (fun a acc -> org_of w a :: acc) owners [] |> List.sort_uniq compare
    in
    let inferred_org = org_of w inferred in
    if List.mem inferred_org orgs then
      if Asn.Set.mem inferred owners then Correct else Correct_sibling
    else if List.for_all (String.equal (host_org w)) orgs then Not_border
    else Wrong_as (Asn.Set.min_elt owners)

(* A §5.4.8 link: the neighbor must truly attach to the (true) router
   behind the inferred near node. *)
let judge_silent (w : Gen.world) g near neighbor =
  let near_routers = true_routers w g near in
  if near_routers = [] then Unverifiable
  else
    let inferred_org = org_of w neighbor in
    let near_rids = List.map (fun (r : Net.router) -> r.Net.rid) near_routers in
    let attached =
      List.exists
        (fun rid ->
          List.exists
            (fun ((l : Net.link), far_rid) ->
              l.Net.kind <> Net.Internal
              && String.equal (org_of w (Net.router w.Gen.net far_rid).Net.owner) inferred_org)
            (Net.neighbors w.Gen.net rid))
        near_rids
    in
    if attached then Correct
    else
      (* The neighbor might attach elsewhere in the host org. *)
      let truly_neighbor =
        Asn.Set.exists
          (fun x ->
            List.exists
              (fun asn -> String.equal (org_of w asn) inferred_org)
              (List.concat_map
                 (fun (l : Net.link) ->
                   let oa = (Net.router w.Gen.net (fst l.Net.a)).Net.owner in
                   let ob = (Net.router w.Gen.net (fst l.Net.b)).Net.owner in
                   if Asn.equal oa x then [ ob ] else if Asn.equal ob x then [ oa ] else [])
                 (Net.interdomain_links w.Gen.net)))
          w.Gen.siblings
      in
      if truly_neighbor then Wrong_as neighbor else Not_border

let links (w : Gen.world) g (r : Heuristics.result) =
  List.map
    (fun (l : Heuristics.border_link) ->
      let verdict =
        match l.Heuristics.far_node with
        | Some fid -> judge_far w g fid l.Heuristics.neighbor
        | None -> (
          match l.Heuristics.near_node with
          | Some nid -> judge_silent w g nid l.Heuristics.neighbor
          | None -> Unverifiable)
      in
      { link = l; verdict })
    r.Heuristics.links

let summarize evals =
  let count f = List.length (List.filter f evals) in
  let correct_strict = count (fun e -> e.verdict = Correct) in
  let sibling = count (fun e -> e.verdict = Correct_sibling) in
  let wrong =
    count (fun e ->
        match e.verdict with
        | Wrong_as _ -> true
        | _ -> false)
  in
  let not_border = count (fun e -> e.verdict = Not_border) in
  let unverifiable = count (fun e -> e.verdict = Unverifiable) in
  let total = List.length evals in
  let verifiable = total - unverifiable in
  { total;
    correct = correct_strict + sibling;
    sibling;
    wrong;
    not_border;
    unverifiable;
    pct_correct =
      (if verifiable = 0 then 0.0
       else 100.0 *. float_of_int (correct_strict + sibling) /. float_of_int verifiable) }

(* [neighbor_routers r judge] summarizes the verdicts [judge id asn]
   on the routers inferred to be neighbor [asn]'s, each as a link to
   its far node; a [None] verdict leaves the router out. *)
let neighbor_routers (r : Heuristics.result) judge =
  let evals = ref [] in
  for id = Array.length r.Heuristics.owners - 1 downto 0 do
    match r.Heuristics.owners.(id) with
    | Heuristics.Neighbor (asn, tag) ->
      Option.iter
        (fun verdict ->
          let link = { Heuristics.near_node = None; far_node = Some id; neighbor = asn; tag } in
          evals := { link; verdict } :: !evals)
        (judge id asn)
    | Heuristics.Host_router | Heuristics.Unknown -> ()
  done;
  summarize !evals

let router_accuracy (w : Gen.world) g r =
  neighbor_routers r (fun id asn -> Some (judge_far w g id asn))

let ixp_members (w : Gen.world) g r =
  let registry = w.Gen.ixp_registry in
  neighbor_routers r (fun id asn ->
      Option.map
        (fun a ->
          match B.Ixp.member_of registry a with
          | None -> Unverifiable
          | Some m ->
            if String.equal (org_of w m) (org_of w asn) then
              if Asn.equal m asn then Correct else Correct_sibling
            else Wrong_as m)
        (List.find_opt (B.Ixp.is_ixp_addr registry) (Rgraph.all_addrs g id)))

let pp_summary ppf s =
  Format.fprintf ppf
    "links=%d correct=%d (%.1f%%) [sibling=%d wrong=%d not_border=%d unverifiable=%d]"
    s.total s.correct s.pct_correct s.sibling s.wrong s.not_border s.unverifiable
