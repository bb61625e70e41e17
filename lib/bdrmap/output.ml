open Netcore

let tag_slug = function
  | Heuristics.T1_multihomed -> "multihomed"
  | Heuristics.T2_firewall -> "firewall"
  | Heuristics.T3_unrouted -> "unrouted"
  | Heuristics.T4_onenet -> "onenet"
  | Heuristics.T5_third_party -> "thirdparty"
  | Heuristics.T5_relationship -> "relationship"
  | Heuristics.T5_missing_customer -> "missingcust"
  | Heuristics.T5_hidden_peer -> "hiddenpeer"
  | Heuristics.T6_count -> "count"
  | Heuristics.T6_ipas -> "ipas"
  | Heuristics.T8_silent -> "silent"
  | Heuristics.T8_other_icmp -> "othericmp"

let tag_of_slug s = Array.find_opt (fun tag -> tag_slug tag = s) Heuristics.all_tags

let closing_str = function
  | Trace.Nothing -> "-"
  | Trace.Echo a -> "echo:" ^ Ipv4.to_string a
  | Trace.Unreach a -> "unreach:" ^ Ipv4.to_string a

let closing_of_str s =
  if s = "-" then Some Trace.Nothing
  else
    match String.split_on_char ':' s with
    | [ "echo"; a ] -> Option.map (fun a -> Trace.Echo a) (Ipv4.of_string a)
    | [ "unreach"; a ] -> Option.map (fun a -> Trace.Unreach a) (Ipv4.of_string a)
    | _ -> None

(* Hops register their addresses in [uf] as observed; TTLs lie in
   1..255 and ascend along the trace. *)
let trace_of_fields uf dst asn stopped hops closing =
  match (Ipv4.of_string dst, int_of_string_opt asn, closing_of_str closing) with
  | Some dst, Some target_asn, Some closing -> (
    let rec parse last acc = function
      | [] -> Some (Array.of_list (List.rev acc))
      | h :: rest -> (
        match String.split_on_char ':' h with
        | [ ttl; a ] -> (
          match (int_of_string_opt ttl, Ipv4.of_string a) with
          | Some ttl, Some a when ttl > last && ttl <= 255 ->
            parse ttl (Trace.hop ~ttl (Aliasres.Alias_graph.Uf.intern uf ~observed:true a) :: acc) rest
          | _ -> None)
        | _ -> None)
    in
    match parse 0 [] (if hops = "" then [] else String.split_on_char ',' hops) with
    | Some hops -> Some { Trace.dst; target_asn; hops; closing; stopped = stopped = "1" }
    | None -> None)
  | _ -> None

let collection_to_lines (c : Collect.t) =
  let addr i = Ipv4.to_string (Aliasres.Alias_graph.addr c.Collect.aliases i) in
  let traces =
    List.map
      (fun (t : Trace.t) ->
        Printf.sprintf "trace|%s|%d|%d|%s|%s" (Ipv4.to_string t.dst) t.target_asn
          (Bool.to_int t.stopped)
          (String.concat ","
             (Array.to_list
                (Array.map
                   (fun h -> Printf.sprintf "%d:%s" (Trace.ttl h) (addr (Trace.id h)))
                   t.hops)))
          (closing_str t.closing))
      c.Collect.traces
  in
  let pairs =
    (* Group membership, one line per member past the least: hop and
       mate singletons come back from the trace and mate lines. *)
    List.concat_map
      (fun group ->
        match group with
        | first :: rest ->
          List.map
            (fun a ->
              Printf.sprintf "alias|%s|%s" (Ipv4.to_string first) (Ipv4.to_string a))
            rest
        | [] -> [])
      (Aliasres.Alias_graph.groups c.Collect.aliases)
  in
  let mates =
    List.map
      (fun (p, h, m) -> Printf.sprintf "mate|%s|%s|%s" (addr p) (addr h) (addr m))
      c.Collect.mates
  in
  traces @ pairs @ mates

let collection_of_lines lines =
  let traces = ref [] in
  let uf = Aliasres.Alias_graph.Uf.create () in
  let mates = ref [] in
  let err line = Error (Printf.sprintf "bad collection line %S" line) in
  let rec go = function
    | [] ->
      Ok
        (Collect.finish uf (List.rev !traces) (List.rev !mates)
           ~sched:(Probesim.Scheduler.create ~pps:100.0) ~alias_pairs_tested:0)
    | line :: rest -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go rest
      else
        match String.split_on_char '|' line with
        | [ "trace"; dst; asn; stopped; hops; closing ] -> (
          match trace_of_fields uf dst asn stopped hops closing with
          | Some t ->
            traces := t :: !traces;
            go rest
          | None -> err line)
        | [ "alias"; a; b ] -> (
          match (Ipv4.of_string a, Ipv4.of_string b) with
          | Some a, Some b ->
            let id = Aliasres.Alias_graph.Uf.intern uf ~observed:false in
            Aliasres.Alias_graph.Uf.union uf (id a) (id b);
            go rest
          | _ -> err line)
        | [ "mate"; p; h; m ] -> (
          match (Ipv4.of_string p, Ipv4.of_string h, Ipv4.of_string m) with
          | Some p, Some h, Some m ->
            let id = Aliasres.Alias_graph.Uf.intern uf ~observed:false in
            mates := (id p, id h, id m) :: !mates;
            go rest
          | _ -> err line)
        | _ -> err line)
  in
  go lines

let addrs_str = function
  | [] -> "-"
  | addrs -> String.concat "," (List.map Ipv4.to_string addrs)

type link_record = {
  near_addrs : Ipv4.t list;
  far_addrs : Ipv4.t list;
  neighbor : Asn.t;
  tag : Heuristics.tag;
}

let link_records g (r : Heuristics.result) =
  let addrs_of = function
    | None -> []
    | Some id -> Rgraph.all_addrs g id
  in
  List.map
    (fun (l : Heuristics.border_link) ->
      { near_addrs = addrs_of l.Heuristics.near_node;
        far_addrs = addrs_of l.Heuristics.far_node;
        neighbor = l.Heuristics.neighbor;
        tag = l.Heuristics.tag })
    r.Heuristics.links

let links_to_lines g r =
  List.map
    (fun l ->
      Printf.sprintf "link|%s|%s|%d|%s" (addrs_str l.near_addrs) (addrs_str l.far_addrs)
        l.neighbor (tag_slug l.tag))
    (link_records g r)

let links_of_lines lines =
  let parse_addrs s =
    if s = "-" then Some []
    else
      let parts = String.split_on_char ',' s in
      let parsed = List.map Ipv4.of_string parts in
      if List.exists Option.is_none parsed then None
      else Some (List.filter_map Fun.id parsed)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go acc rest
      else
        match String.split_on_char '|' line with
        | [ "link"; near; far; asn; slug ] -> (
          match
            (parse_addrs near, parse_addrs far, int_of_string_opt asn, tag_of_slug slug)
          with
          | Some near_addrs, Some far_addrs, Some neighbor, Some tag ->
            go ({ near_addrs; far_addrs; neighbor; tag } :: acc) rest
          | _ -> Error (Printf.sprintf "bad link line %S" line))
        | _ -> Error (Printf.sprintf "bad link line %S" line))
  in
  go [] lines
