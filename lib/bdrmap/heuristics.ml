open Netcore
module B = Bgpdata

type tag =
  | T1_multihomed
  | T2_firewall
  | T3_unrouted
  | T4_onenet
  | T5_third_party
  | T5_relationship
  | T5_missing_customer
  | T5_hidden_peer
  | T6_count
  | T6_ipas
  | T8_silent
  | T8_other_icmp

let all_tags =
  [| T1_multihomed; T2_firewall; T3_unrouted; T4_onenet; T5_third_party;
     T5_relationship; T5_missing_customer; T5_hidden_peer; T6_count; T6_ipas;
     T8_silent; T8_other_icmp |]

let tag_label = function
  | T1_multihomed -> "1. Multihomed to VP"
  | T2_firewall -> "2. Firewall"
  | T3_unrouted -> "3. Unrouted interface"
  | T4_onenet -> "4. IP-AS (onenet)"
  | T5_third_party -> "5. Third party"
  | T5_relationship -> "5. AS relationship"
  | T5_missing_customer -> "5. Missing customer"
  | T5_hidden_peer -> "5. Hidden peer"
  | T6_count -> "6. Count"
  | T6_ipas -> "6. IP-AS"
  | T8_silent -> "8. Silent neighbor"
  | T8_other_icmp -> "8. Other ICMP"

(* Stable machine-readable names for metrics and trace records; the
   step-1 "operated by the hosting network" decision is reported as
   "host_network" so fire counts cover every decided router. *)
let tag_slug = function
  | T1_multihomed -> "multihomed"
  | T2_firewall -> "firewall"
  | T3_unrouted -> "unrouted"
  | T4_onenet -> "onenet"
  | T5_third_party -> "third_party"
  | T5_relationship -> "relationship"
  | T5_missing_customer -> "missing_customer"
  | T5_hidden_peer -> "hidden_peer"
  | T6_count -> "count"
  | T6_ipas -> "ipas"
  | T8_silent -> "silent"
  | T8_other_icmp -> "other_icmp"

type owner = Host_router | Neighbor of Asn.t * tag | Unknown

type border_link = {
  near_node : int option;
  far_node : int option;
  neighbor : Asn.t;
  tag : tag;
}

type result = {
  owners : owner array;
  merged_from : int list array;
  links : border_link list;
  nextas_used : int;
}

let owner_of result id = result.owners.(id)

(* Node-level address classification. Host space outranks external
   evidence: once alias resolution ties a host-space interface to a
   router, the router enters the §5.4.1 reasoning even when it also
   revealed a foreign address (the fig-13 virtual-router case). *)
type ncls = Nhost | Next of Asn.Set.t | Nixp | Nunrouted

let classify_node ip2as g (n : Rgraph.node) =
  let ext = ref Asn.Set.empty and host = ref false and ixp = ref false in
  List.iter
    (fun a ->
      match Ip2as.classify ip2as a with
      | Ip2as.External origins -> ext := Asn.Set.union origins !ext
      | Ip2as.Host -> host := true
      | Ip2as.Ixp _ -> ixp := true
      | Ip2as.Unrouted | Ip2as.Reserved -> ())
    (Rgraph.observed_addrs g n.Rgraph.id);
  if !host then Nhost
  else if not (Asn.Set.is_empty !ext) then Next !ext
  else if !ixp then Nixp
  else Nunrouted

let infer ?(disabled = []) cfg ip2as ~rels g (c : Collect.t) =
  let enabled tag = not (List.mem tag disabled) in
  let gate tag decision =
    match decision with
    | Some (Neighbor (_, t)) when t = tag && not (enabled tag) -> None
    | d -> d
  in
  let n_nodes = Rgraph.node_count g in
  (* Each node's neighbor lists, built once. *)
  let succ_lists = Array.init n_nodes (fun id -> Rgraph.succs g (Rgraph.node g id)) in
  let pred_lists = Array.init n_nodes (fun id -> Rgraph.preds g (Rgraph.node g id)) in
  let succs (n : Rgraph.node) = succ_lists.(n.Rgraph.id) in
  let preds (n : Rgraph.node) = pred_lists.(n.Rgraph.id) in
  let owners = Array.make n_nodes Unknown in
  let merged_from = Array.make n_nodes [] in
  (* [rep.(id)] is the node [id] was merged into, or [id] itself. Each
     node is merged at most once, so one slot suffices. *)
  let rep = Array.init n_nodes Fun.id in
  let nextas_used = ref 0 in
  let vp_asns = cfg.Config.vp_asns in
  (* Each node is classified once, when first asked. *)
  let classes = Array.make n_nodes None in
  let cls (n : Rgraph.node) =
    match classes.(n.Rgraph.id) with
    | Some c -> c
    | None ->
      let c = classify_node ip2as g n in
      classes.(n.Rgraph.id) <- Some c;
      c
  in
  let single_ext n =
    match cls n with
    | Next asns when Asn.Set.cardinal asns = 1 -> Some (Asn.Set.min_elt asns)
    | Next _ | Nhost | Nixp | Nunrouted -> None
  in
  let is_vp_asn a = Asn.Set.mem a vp_asns in
  (* nextas (§5.4 closing paragraph): the most common provider among the
     destination ASes probed through the router, defined only when the
     router serves multiple destination ASes. *)
  let nextas (n : Rgraph.node) =
    if Asn.Set.cardinal n.Rgraph.dests < 2 then None
    else
      let providers =
        Asn.Set.fold
          (fun d acc -> Asn.Set.elements (B.As_rel.providers rels d) @ acc)
          n.Rgraph.dests []
      in
      Asn.most_frequent providers
  in
  (* First routed origins reachable from [n] through unrouted/IXP nodes. *)
  let first_routed n =
    let seen = Hashtbl.create 16 in
    let rec go depth acc (m : Rgraph.node) =
      if depth > 4 || Hashtbl.mem seen m.Rgraph.id then acc
      else begin
        Hashtbl.add seen m.Rgraph.id ();
        List.fold_left
          (fun acc s ->
            match cls s with
            | Next asns -> Asn.Set.union asns acc
            | Nhost -> acc
            | Nixp | Nunrouted -> go (depth + 1) acc s)
          acc (succs m)
      end
    in
    go 0 Asn.Set.empty n
  in
  let most_frequent_provider asns =
    let providers =
      Asn.Set.fold
        (fun a acc -> Asn.Set.elements (B.As_rel.providers rels a) @ acc)
        asns []
    in
    Asn.most_frequent providers
  in
  (* §5.4.3 (also applied to IXP-numbered routers): adjacent routed
     networks, else destinations probed, else nextas. *)
  let step3 (n : Rgraph.node) =
    let routed = first_routed n in
    if Asn.Set.cardinal routed = 1 then Some (Neighbor (Asn.Set.min_elt routed, T3_unrouted))
    else if Asn.Set.cardinal routed > 1 then (
      match most_frequent_provider routed with
      | Some a -> Some (Neighbor (a, T3_unrouted))
      | None -> Some (Neighbor (Asn.Set.min_elt routed, T3_unrouted)))
    else if Asn.Set.cardinal n.Rgraph.last_toward = 1 then
      Some (Neighbor (Asn.Set.min_elt n.Rgraph.last_toward, T3_unrouted))
    else (
      match nextas n with
      | Some a ->
        incr nextas_used;
        Some (Neighbor (a, T3_unrouted))
      | None -> None)
  in
  (* §5.4.2: a host-addressed router closing every path toward an AS is
     that AS's firewalled border. *)
  let step2 (n : Rgraph.node) =
    if succs n <> [] then None
    else if Asn.Set.cardinal n.Rgraph.last_toward = 1 then
      Some (Neighbor (Asn.Set.min_elt n.Rgraph.last_toward, T2_firewall))
    else
      match nextas n with
      | Some a ->
        incr nextas_used;
        Some (Neighbor (a, T2_firewall))
      | None -> None
  in
  (* §5.4.4 step 4.2: two consecutive external routers in one AS after a
     host-addressed router whose external adjacency is that AS alone
     (multi-AS adjacency is §5.4.6's step 6.1 territory). *)
  let adj_ext_of n =
    List.fold_left
      (fun acc m ->
        match cls m with
        | Next asns -> Asn.Set.union asns acc
        | Nhost | Nixp | Nunrouted -> acc)
      Asn.Set.empty (succs n)
  in
  let step4_host (n : Rgraph.node) =
    if Asn.Set.cardinal (adj_ext_of n) <> 1 then None
    else
      List.find_map
        (fun m ->
          match single_ext m with
          | None -> None
          | Some a ->
            List.find_map
              (fun m2 ->
                if m2.Rgraph.id <> n.Rgraph.id && single_ext m2 = Some a then
                  Some (Neighbor (a, T4_onenet))
                else None)
              (succs m))
        (succs n)
  in
  (* Third-party pattern (§5.4.5 steps 5.1/5.2): an address from A on a
     router only seen toward B, with A a provider of B. *)
  let third_party_target (m : Rgraph.node) =
    match single_ext m with
    | None -> None
    | Some a ->
      if Asn.Set.cardinal m.Rgraph.dests = 1 then
        let b = Asn.Set.min_elt m.Rgraph.dests in
        if (not (Asn.equal a b)) && B.As_rel.is_provider_of rels ~provider:a ~customer:b
        then Some b
        else None
      else None
  in
  let step5 (n : Rgraph.node) =
    let succs = succs n in
    (* 5.1: the (single) successor reveals the third-party pattern;
       aggregation routers with several successors stay with the host. *)
    let third_party_chain =
      match succs with
      | [ m ] -> third_party_target m
      | _ -> None
    in
    match third_party_chain with
    | Some b -> Some (Neighbor (b, T5_third_party))
    | None -> (
      let adj_ext = adj_ext_of n in
      if Asn.Set.cardinal adj_ext <> 1 then None
      else
        let a = Asn.Set.min_elt adj_ext in
        let rel_with_vp =
          Asn.Set.fold
            (fun x acc ->
              match acc with
              | Some _ -> acc
              | None -> B.As_rel.rel rels ~of_:x ~with_:a)
            vp_asns None
        in
        match rel_with_vp with
        (* 5.3: a known peer or customer of the hosting network. *)
        | Some B.As_rel.Customer | Some B.As_rel.Peer ->
          Some (Neighbor (a, T5_relationship))
        | Some B.As_rel.Provider ->
          (* Provider-space addresses adjacent: attribute to the provider
             (its side of the interconnect). *)
          Some (Neighbor (a, T5_relationship))
        | None -> (
          (* 5.4: missing customer — B provides to A, X provides to B. *)
          let between =
            Asn.Set.filter
              (fun b ->
                Asn.Set.exists
                  (fun x -> B.As_rel.is_provider_of rels ~provider:x ~customer:b)
                  vp_asns)
              (B.As_rel.providers rels a)
          in
          match Asn.Set.min_elt_opt between with
          | Some b -> Some (Neighbor (b, T5_missing_customer))
          (* 5.5: hidden peer — no relationship known, single AS beyond. *)
          | None -> Some (Neighbor (a, T5_hidden_peer))))
  in
  (* §5.4.6 step 6.1: multiple adjacent external ASes — majority by
     distinct adjacent addresses, ties broken by a known relationship. *)
  let step6_host (n : Rgraph.node) =
    let counts = Asn.Tbl.create 8 in
    List.iter
      (fun m ->
        List.iter
          (fun a ->
            match Ip2as.classify ip2as a with
            | Ip2as.External origins ->
              let asn = Asn.Set.min_elt origins in
              Asn.Tbl.replace counts asn
                (1 + Option.value ~default:0 (Asn.Tbl.find_opt counts asn))
            | _ -> ())
          (Rgraph.observed_addrs g m.Rgraph.id))
      (succs n);
    let ranked =
      Asn.Tbl.fold (fun a k acc -> (a, k) :: acc) counts []
      |> List.sort (fun (a1, k1) (a2, k2) ->
             match Int.compare k2 k1 with
             | 0 -> Asn.compare a1 a2
             | c -> c)
    in
    match ranked with
    | [] -> None
    | (best, kbest) :: rest ->
      let tied = best :: List.filter_map (fun (a, k) -> if k = kbest then Some a else None) rest in
      let chosen =
        match
          List.find_opt
            (fun a -> Asn.Set.exists (fun x -> B.As_rel.known rels x a) vp_asns)
            tied
        with
        | Some a -> a
        | None -> best
      in
      Some (Neighbor (chosen, T6_count))
  in
  (* §5.4.1: routers of the hosting network, and the multihomed-neighbor
     exception (step 1.1). *)
  let step1 (n : Rgraph.node) =
    let succs = succs n and preds = preds n in
    (* IXP-LAN successors anchor the near side like host-space ones: the
       LAN hop is the member's router, so this router sits on our side
       of the exchange. *)
    let host_succ =
      List.exists
        (fun m ->
          match cls m with
          | Nhost | Nixp -> true
          | Next _ | Nunrouted -> false)
        succs
    in
    (* 1.1: single external AS adjacent, and every destination probed
       through this router is that AS or one of its customers. *)
    let adj_ext =
      List.fold_left
        (fun acc m ->
          match single_ext m with
          | Some a -> Asn.Set.add a acc
          | None -> acc)
        Asn.Set.empty (succs @ preds)
    in
    let multihomed =
      if Asn.Set.cardinal adj_ext = 1 && List.exists (fun m -> cls m = Nhost) succs
      then
        let a = Asn.Set.min_elt adj_ext in
        if is_vp_asn a then None
        else
          let allowed = Asn.Set.add a (B.As_rel.customers rels a) in
          let dests_ok = Asn.Set.subset n.Rgraph.dests allowed in
          let guard_ok =
            List.for_all
              (fun m ->
                match single_ext m with
                | None -> true
                | Some candidate ->
                  let cust_of_vp =
                    Asn.Set.exists
                      (fun x -> B.As_rel.is_provider_of rels ~provider:x ~customer:candidate)
                      vp_asns
                  in
                  (not cust_of_vp) || B.As_rel.known rels a candidate
                  || Asn.equal a candidate)
              succs
          in
          if dests_ok && guard_ok then Some a else None
      else None
    in
    match multihomed with
    | Some a -> Some (Neighbor (a, T1_multihomed))
    | None -> if host_succ then Some Host_router else None
  in
  (* Main pass in hop order. *)
  let ordered = Rgraph.by_hop_distance g in
  List.iter
    (fun (n : Rgraph.node) ->
      let decision =
        match cls n with
        | Nhost -> (
          match step1 n with
          | Some o -> Some o
          | None -> (
            (* Far side of an interdomain link numbered from host space:
               steps 2-6 in order. *)
            match gate T2_firewall (step2 n) with
            | Some o -> Some o
            | None -> (
              let succs = succs n in
              let all_unrouted =
                succs <> []
                && List.for_all
                     (fun m ->
                       match cls m with
                       | Nunrouted | Nixp -> true
                       | Nhost | Next _ -> false)
                     succs
              in
              if all_unrouted then gate T3_unrouted (step3 n)
              else
                match gate T4_onenet (step4_host n) with
                | Some o -> Some o
                | None -> (
                  match step5 n with
                  | Some o when
                      (match o with
                      | Neighbor (_, t) -> enabled t
                      | Host_router | Unknown -> true) ->
                    Some o
                  | Some _ | None -> gate T6_count (step6_host n)))))
        | Nunrouted | Nixp -> gate T3_unrouted (step3 n)
        | Next asns -> (
          (* 4.1: consecutive hops in one external AS. *)
          let single =
            if Asn.Set.cardinal asns = 1 then Some (Asn.Set.min_elt asns) else None
          in
          match single with
          | Some a
            when enabled T4_onenet
                 && List.exists
                      (fun m ->
                        match cls m with
                        | Next asns' -> Asn.Set.mem a asns'
                        | _ -> false)
                      (succs n) ->
            Some (Neighbor (a, T4_onenet))
          | _ -> (
            match
              if enabled T5_third_party then third_party_target n else None
            with
            | Some b -> Some (Neighbor (b, T5_third_party))
            | None -> (
              match single with
              | Some a ->
                if is_vp_asn a then Some Host_router
                else Some (Neighbor (a, T6_ipas))
              | None ->
                (* Multi-origin or mixed: majority address count. *)
                Some
                  (Neighbor
                     ( Asn.Set.min_elt asns,
                       T6_ipas )))))
      in
      match decision with
      | Some o -> owners.(n.Rgraph.id) <- o
      | None -> ())
    ordered;
  (* §5.4.7: collapse single-interface host routers that face one
     neighbor router over an inferred point-to-point link: one member,
     an observed one. *)
  let single_interface (p : Rgraph.node) =
    match (Rgraph.observed_addrs g p.Rgraph.id, Rgraph.all_addrs g p.Rgraph.id) with
    | [ _ ], [ _ ] -> true
    | _ -> false
  in
  let p2p_confirmed = Array.make n_nodes false in
  List.iter
    (fun (_, hop, _) ->
      if Aliasres.Alias_graph.observed c.Collect.aliases hop then
        Option.iter
          (fun (f : Rgraph.node) -> p2p_confirmed.(f.Rgraph.id) <- true)
          (Rgraph.node_of_id g hop))
    c.Collect.mates;
  List.iter
    (fun (f : Rgraph.node) ->
      match owners.(f.Rgraph.id) with
      | Neighbor _ ->
        if p2p_confirmed.(f.Rgraph.id) then begin
          let host_preds =
            List.filter
              (fun (p : Rgraph.node) ->
                owners.(p.Rgraph.id) = Host_router
                && rep.(p.Rgraph.id) = p.Rgraph.id
                && single_interface p)
              (preds f)
          in
          match host_preds with
          | r :: ((_ :: _) as others) ->
            List.iter
              (fun (o : Rgraph.node) ->
                rep.(o.Rgraph.id) <- r.Rgraph.id;
                merged_from.(r.Rgraph.id) <- o.Rgraph.id :: merged_from.(r.Rgraph.id))
              others
          | _ -> ()
        end
      | Host_router | Unknown -> ())
    ordered;
  (* Border links from inferred neighbor routers. *)
  let links = ref [] in
  let seen_links = Hashtbl.create 256 in
  let add_link near far neighbor tag =
    let key = (near, far, neighbor) in
    if not (Hashtbl.mem seen_links key) then begin
      Hashtbl.add seen_links key ();
      links := { near_node = near; far_node = far; neighbor; tag } :: !links
    end
  in
  Array.iteri
    (fun id o ->
      match o with
      | Neighbor (b, tag) ->
        let host_preds =
          List.filter (fun (p : Rgraph.node) -> owners.(p.Rgraph.id) = Host_router)
            pred_lists.(id)
        in
        (* Routers with no host-owned predecessor belong to borders of
           distant networks, outside this VP's inference scope (§1). *)
        List.iter
          (fun (p : Rgraph.node) ->
            add_link (Some rep.(p.Rgraph.id)) (Some id) b tag)
          host_preds
      | Host_router | Unknown -> ())
    owners;
  (* §5.4.8: silent and echo-only neighbors. *)
  let inferred_neighbors =
    List.fold_left (fun acc l -> Asn.Set.add l.neighbor acc) Asn.Set.empty !links
  in
  let bgp_neighbors =
    Asn.Set.fold
      (fun x acc -> Asn.Set.union (B.As_rel.neighbors rels x) acc)
      vp_asns Asn.Set.empty
    |> Asn.Set.filter (fun a -> not (Asn.Set.mem a vp_asns))
  in
  Asn.Set.iter
    (fun b ->
      if not (Asn.Set.mem b inferred_neighbors) then begin
        let traces_to_b =
          List.filter (fun t -> Asn.equal t.Trace.target_asn b) c.Collect.traces
        in
        if traces_to_b <> [] then begin
          (* Per trace, its last host router and the nodes after it. *)
          let last_host_and_tail =
            List.map
              (fun t ->
                Array.fold_left
                  (fun ((last, after) as acc) h ->
                    match Rgraph.node_of_id g (Trace.id h) with
                    | None -> acc
                    | Some m ->
                      if owners.(m.Rgraph.id) = Host_router then (Some m.Rgraph.id, [])
                      else (last, m :: after))
                  (None, []) t.Trace.hops)
              traces_to_b
          in
          let lasts = List.filter_map fst last_host_and_tail in
          let tails = List.concat_map snd last_host_and_tail in
          match List.sort_uniq compare lasts with
          | [ r ] when tails = [] ->
            let has_other_icmp =
              List.exists
                (fun (asn, src) ->
                  Asn.equal asn b && Ip2as.single_external ip2as src = Some b)
                c.Collect.other_icmp
            in
            if has_other_icmp then add_link (Some r) None b T8_other_icmp
            else add_link (Some r) None b T8_silent
          | _ -> ()
        end
      end)
    bgp_neighbors;
  (* Observability: per-heuristic fire counts and per-router provenance.
     Purely passive — reads the finished decision array; with metrics
     off and no sink the whole block is one branch. *)
  let obs_m = Obs.Metrics.enabled () and obs_t = Obs.Span.sink_active () in
  if obs_m || obs_t then begin
    let fire : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let bump slug =
      Hashtbl.replace fire slug
        (1 + Option.value ~default:0 (Hashtbl.find_opt fire slug))
    in
    Array.iteri
      (fun id o ->
        let provenance =
          match o with
          | Unknown -> None
          | Host_router -> Some ("host", "host_network", None)
          | Neighbor (asn, tag) -> Some ("neighbor", tag_slug tag, Some asn)
        in
        match provenance with
        | None -> ()
        | Some (owner, slug, asn) ->
          bump slug;
          if obs_t then begin
            let addrs =
              String.concat "," (List.map Ipv4.to_string (Rgraph.observed_addrs g id))
            in
            Obs.Span.event ~kind:"router"
              (( "id", Obs.Span.I id )
               :: ( "owner", Obs.Span.S owner )
               :: ( "heuristic", Obs.Span.S slug )
               :: (match asn with
                  | Some a -> [ ("asn", Obs.Span.I a) ]
                  | None -> [])
              @ [ ("addrs", Obs.Span.S addrs);
                  ("merged_from", Obs.Span.I (List.length merged_from.(id))) ])
          end)
      owners;
    let sorted =
      List.sort (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun slug n acc -> (slug, n) :: acc) fire [])
    in
    List.iter
      (fun (slug, n) ->
        if obs_m then Obs.Metrics.add ("heuristics.fire." ^ slug) n;
        if obs_t then
          Obs.Span.event ~kind:"heuristic_fire"
            [ ("heuristic", Obs.Span.S slug); ("count", Obs.Span.I n) ])
      sorted;
    if obs_m then begin
      Obs.Metrics.add "heuristics.routers" n_nodes;
      Obs.Metrics.add "heuristics.links" (List.length !links);
      Obs.Metrics.add "heuristics.nextas_used" !nextas_used
    end
  end;
  { owners; merged_from; links = List.rev !links; nextas_used = !nextas_used }

(* {2 Codec}

   result := routers (count, then per node in id order: its id varint
             | owner | merged_from (varint list))
           | links (count, then near | far (0, or 1 and a node id) |
             neighbor varint | tag byte, its index in [all_tags])
           | nextas_used varint
   owner := 0 host | 1 unknown | 2, then asn varint and tag byte

   Routers and links name graph nodes by id. The router section holds
   one entry per graph node, so its count and ids are checked against
   the graph, not trusted. *)

module Codec = Store.Codec

let encode_tag w tag =
  let rec go i = if all_tags.(i) = tag then i else go (i + 1) in
  Codec.put_u8 w (go 0)

let decode_tag r =
  let i = Codec.u8 r in
  if i >= Array.length all_tags then Codec.fail ();
  all_tags.(i)

let encode w res =
  let put_id_opt w = function
    | None -> Codec.put_u8 w 0
    | Some id ->
      Codec.put_u8 w 1;
      Codec.put_varint w id
  in
  Codec.put_varint w (Array.length res.owners);
  Array.iteri
    (fun id owner ->
      Codec.put_varint w id;
      (match owner with
      | Host_router -> Codec.put_u8 w 0
      | Unknown -> Codec.put_u8 w 1
      | Neighbor (asn, tag) ->
        Codec.put_u8 w 2;
        Codec.put_varint w asn;
        encode_tag w tag);
      Codec.put_list w Codec.put_varint res.merged_from.(id))
    res.owners;
  Codec.put_list w
    (fun w l ->
      put_id_opt w l.near_node;
      put_id_opt w l.far_node;
      Codec.put_varint w l.neighbor;
      encode_tag w l.tag)
    res.links;
  Codec.put_varint w res.nextas_used

let decode g r =
  let n = Rgraph.node_count g in
  let id r =
    let id = Codec.varint r in
    if id >= n then Codec.fail ();
    id
  in
  let id_opt r = if Codec.bool r then Some (id r) else None in
  if Codec.count r ~min_bytes:3 <> n then Codec.fail ();
  let merged_from = Array.make n [] in
  let owners =
    Codec.array n ~fill:Unknown (fun i ->
        if Codec.varint r <> i then Codec.fail ();
        let owner =
          match Codec.u8 r with
          | 0 -> Host_router
          | 1 -> Unknown
          | 2 ->
            let asn = Codec.varint r in
            Neighbor (asn, decode_tag r)
          | _ -> Codec.fail ()
        in
        merged_from.(i) <- Codec.list r ~min_bytes:1 id;
        owner)
  in
  let links =
    Codec.list r ~min_bytes:4 (fun r ->
        let near_node = id_opt r in
        let far_node = id_opt r in
        let neighbor = Codec.varint r in
        { near_node; far_node; neighbor; tag = decode_tag r })
  in
  let nextas_used = Codec.varint r in
  { owners; merged_from; links; nextas_used }
