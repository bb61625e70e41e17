open Netcore

type link = {
  near_addr : Ipv4.t;
  far_addr : Ipv4.t option;
  neighbor : Asn.t;
}

let dedup links =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun l ->
      let key = (l.near_addr, l.far_addr, l.neighbor) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    links

(* The baselines work on raw addresses: [addr c] names [c]'s hop ids. *)
let addr (c : Collect.t) = Aliasres.Alias_graph.addr c.Collect.aliases

let naive_ipas ip2as c =
  (* A border wherever a host-mapped hop precedes an externally-mapped
     hop; the external hop's longest-match origin names the neighbor. *)
  let links = ref [] in
  List.iter
    (Trace.iter_pairs (fun i j _ ->
         let a = addr c i and b = addr c j in
         if Ip2as.is_host ip2as a then
           match Ip2as.classify ip2as b with
           | Ip2as.External origins ->
             links :=
               { near_addr = a; far_addr = Some b; neighbor = Asn.Set.min_elt origins }
               :: !links
           | Ip2as.Host | Ip2as.Ixp _ | Ip2as.Unrouted | Ip2as.Reserved -> ()))
    c.Collect.traces;
  dedup (List.rev !links)

let mapit ip2as col =
  (* Evidence on both sides: the far interface must be followed by
     another interface mapping to the same external AS (the adjacent
     addresses MAP-IT's inference needs). Path-end borders are
     invisible to this rule. *)
  List.concat_map
    (fun t ->
      let rec scan = function
        | a :: (b :: c :: _ as rest) ->
          let here =
            if Ip2as.is_host ip2as a then
              match (Ip2as.classify ip2as b, Ip2as.classify ip2as c) with
              | Ip2as.External ob, Ip2as.External oc
                when not (Asn.Set.disjoint ob oc) ->
                [ { near_addr = a; far_addr = Some b;
                    neighbor = Asn.Set.min_elt (Asn.Set.inter ob oc) } ]
              | _ -> []
            else []
          in
          here @ scan rest
        | _ -> []
      in
      scan (List.map (fun h -> addr col (Trace.id h)) (Array.to_list t.Trace.hops)))
    col.Collect.traces
  |> dedup
