open Netcore
module B = Bgpdata

type cls = Cust | Peer | Prov | Trace

let all_classes = [ Cust; Peer; Prov; Trace ]

type t = {
  observed_in_bgp : (cls * int) list;
  observed_in_bdrmap : (cls * int) list;
  coverage_pct : float;
  heuristic_share : (Heuristics.tag * (cls * float) list) list;
  neighbor_routers : (cls * int) list;
}

let class_of_neighbor ~rels ~vp_asns asn =
  let rel =
    Asn.Set.fold
      (fun x acc ->
        match acc with
        | Some _ -> acc
        | None -> B.As_rel.rel rels ~of_:x ~with_:asn)
      vp_asns None
  in
  match rel with
  | Some B.As_rel.Customer -> Cust
  | Some B.As_rel.Peer -> Peer
  | Some B.As_rel.Provider -> Prov
  | None -> Trace

let table1 ~rels ~vp_asns (r : Heuristics.result) =
  (* Neighbors of the hosting org in the public relationship data. *)
  let bgp_neighbors =
    Asn.Set.fold
      (fun x acc -> Asn.Set.union (B.As_rel.neighbors rels x) acc)
      vp_asns Asn.Set.empty
    |> Asn.Set.filter (fun a -> not (Asn.Set.mem a vp_asns))
  in
  let observed_in_bgp =
    List.map
      (fun c ->
        ( c,
          Asn.Set.cardinal
            (Asn.Set.filter
               (fun a -> class_of_neighbor ~rels ~vp_asns a = c && c <> Trace)
               bgp_neighbors) ))
      all_classes
  in
  (* Neighbors bdrmap inferred at least one link for. *)
  let inferred_neighbors =
    List.fold_left
      (fun acc (l : Heuristics.border_link) -> Asn.Set.add l.Heuristics.neighbor acc)
      Asn.Set.empty r.Heuristics.links
  in
  let observed_in_bdrmap =
    List.map
      (fun c ->
        match c with
        | Trace ->
          ( c,
            Asn.Set.cardinal
              (Asn.Set.filter
                 (fun a -> not (Asn.Set.mem a bgp_neighbors))
                 inferred_neighbors) )
        | _ ->
          ( c,
            Asn.Set.cardinal
              (Asn.Set.filter
                 (fun a ->
                   Asn.Set.mem a bgp_neighbors && class_of_neighbor ~rels ~vp_asns a = c)
                 inferred_neighbors) ))
      all_classes
  in
  let bgp_total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 observed_in_bgp
  in
  let bdrmap_in_bgp =
    List.fold_left
      (fun acc (c, n) -> if c = Trace then acc else acc + n)
      0 observed_in_bdrmap
  in
  let coverage_pct =
    if bgp_total = 0 then 0.0
    else 100.0 *. float_of_int bdrmap_in_bgp /. float_of_int bgp_total
  in
  (* Neighbor routers: one per (far node); §5.4.8 links count as one
     (unobserved) router each. Classified by their neighbor AS. *)
  let routers_per_class = Hashtbl.create 8 in
  let tags_per_class : (Heuristics.tag * cls, int) Hashtbl.t = Hashtbl.create 32 in
  let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
  let seen_far = Hashtbl.create 256 in
  List.iter
    (fun (l : Heuristics.border_link) ->
      let c = class_of_neighbor ~rels ~vp_asns l.Heuristics.neighbor in
      let key =
        match l.Heuristics.far_node with
        | Some fid -> `Far fid
        | None -> `Silent (l.Heuristics.near_node, l.Heuristics.neighbor)
      in
      if not (Hashtbl.mem seen_far key) then begin
        Hashtbl.add seen_far key ();
        bump routers_per_class c;
        bump tags_per_class (l.Heuristics.tag, c)
      end)
    r.Heuristics.links;
  let neighbor_routers =
    List.map
      (fun c -> (c, Option.value ~default:0 (Hashtbl.find_opt routers_per_class c)))
      all_classes
  in
  let heuristic_share =
    List.map
      (fun tag ->
        ( tag,
          List.map
            (fun c ->
              let total = Option.value ~default:0 (Hashtbl.find_opt routers_per_class c) in
              let k = Option.value ~default:0 (Hashtbl.find_opt tags_per_class (tag, c)) in
              ( c,
                if total = 0 then 0.0 else 100.0 *. float_of_int k /. float_of_int total ))
            all_classes ))
      (Array.to_list Heuristics.all_tags)
  in
  { observed_in_bgp; observed_in_bdrmap; coverage_pct; heuristic_share; neighbor_routers }

let print ?(title = "Table 1") ppf t =
  let cell = Format.fprintf in
  cell ppf "%s@." title;
  cell ppf "%-24s %8s %8s %8s %8s@." "" "cust" "peer" "prov" "trace";
  let row name get =
    cell ppf "%-24s" name;
    List.iter (fun c -> cell ppf " %8s" (get c)) all_classes;
    cell ppf "@."
  in
  let find l c = List.assoc c l in
  row "Observed in BGP" (fun c ->
      if c = Trace then "" else string_of_int (find t.observed_in_bgp c));
  row "Observed in bdrmap" (fun c -> string_of_int (find t.observed_in_bdrmap c));
  cell ppf "%-24s %8.1f%%@." "Coverage of BGP" t.coverage_pct;
  List.iter
    (fun (tag, shares) ->
      let nonzero = List.exists (fun (_, v) -> v > 0.0) shares in
      if nonzero then
        row (Heuristics.tag_label tag) (fun c ->
            let v = find shares c in
            if v = 0.0 then "" else Printf.sprintf "%.1f%%" v))
    t.heuristic_share;
  row "Neighbor routers" (fun c -> string_of_int (find t.neighbor_routers c))
