open Netcore

type vp_links = { vp_name : string; links : Output.link_record list }

type merged = {
  near_addrs : Ipv4.Set.t;
  far_addrs : Ipv4.Set.t;
  neighbor : Asn.t;
  tags : Heuristics.tag list;
  seen_by : string list;
}

let of_run vp_name graph result = { vp_name; links = Output.link_records graph result }

(* [same_link m ~near ~far] holds when a record of [m]'s neighbor with
   these near and far address sets is [m]'s link; [merge] only asks
   about entries of the record's neighbor. *)
let same_link (m : merged) ~near ~far =
  if Ipv4.Set.is_empty far && Ipv4.Set.is_empty m.far_addrs then
    (* Silent on both sides: match on the near router. *)
    not (Ipv4.Set.disjoint near m.near_addrs)
  else
    (not (Ipv4.Set.disjoint far m.far_addrs))
    && not (Ipv4.Set.disjoint near m.near_addrs)

(* Merged links indexed by neighbor ASN: a record can only merge into an
   entry with the same neighbor, so only that neighbor's entries are
   scanned (newest first, matching the former whole-list scan order)
   instead of every merged link so far.  [items] maps a first-seen index
   to the current state of that merged link, which keeps the output
   order identical to the append-only list it replaces. Each record's
   address sets are built once. *)
let merge runs =
  let items : (int, merged) Hashtbl.t = Hashtbl.create 256 in
  let by_neighbor : (Asn.t, int list) Hashtbl.t = Hashtbl.create 64 in
  let n = ref 0 in
  List.iter
    (fun run ->
      List.iter
        (fun (r : Output.link_record) ->
          let near = Ipv4.Set.of_list r.Output.near_addrs in
          let far = Ipv4.Set.of_list r.Output.far_addrs in
          let candidates =
            Option.value ~default:[] (Hashtbl.find_opt by_neighbor r.Output.neighbor)
          in
          match
            List.find_opt (fun i -> same_link (Hashtbl.find items i) ~near ~far) candidates
          with
          | Some i ->
            let m = Hashtbl.find items i in
            Hashtbl.replace items i
              { m with
                near_addrs = Ipv4.Set.union m.near_addrs near;
                far_addrs = Ipv4.Set.union m.far_addrs far;
                tags =
                  (if List.mem r.Output.tag m.tags then m.tags
                   else m.tags @ [ r.Output.tag ]);
                seen_by =
                  (if List.mem run.vp_name m.seen_by then m.seen_by
                   else m.seen_by @ [ run.vp_name ]) }
          | None ->
            Hashtbl.replace items !n
              { near_addrs = near;
                far_addrs = far;
                neighbor = r.Output.neighbor;
                tags = [ r.Output.tag ];
                seen_by = [ run.vp_name ] };
            Hashtbl.replace by_neighbor r.Output.neighbor (!n :: candidates);
            incr n)
        run.links)
    runs;
  List.init !n (fun i -> Hashtbl.find items i)

(* Extracting per-VP link sets is independent work, so it parallelizes
   per VP.  Order is preserved either way. *)
let of_runs ?pool runs =
  let extract (vp_name, graph, result) = of_run vp_name graph result in
  match pool with
  | None -> List.map extract runs
  | Some pool -> Pool.map pool extract runs

let merge_runs ?pool runs =
  Obs.Span.with_span ~stage:"aggregate" (fun () ->
      let merged = merge (of_runs ?pool runs) in
      if Obs.Metrics.enabled () then begin
        Obs.Metrics.add "aggregate.vp_runs" (List.length runs);
        Obs.Metrics.add "aggregate.merged_links" (List.length merged)
      end;
      merged)

let per_neighbor merged =
  let tbl = Asn.Tbl.create 32 in
  List.iter
    (fun m ->
      Asn.Tbl.replace tbl m.neighbor
        (1 + Option.value ~default:0 (Asn.Tbl.find_opt tbl m.neighbor)))
    merged;
  Asn.Tbl.fold (fun a n acc -> (a, n) :: acc) tbl []
  |> List.sort (fun (a1, n1) (a2, n2) ->
         match Int.compare n2 n1 with
         | 0 -> Asn.compare a1 a2
         | c -> c)

let marginal_utility ~vp_order merged =
  (* Invert seen_by once (VP name -> merged indices) instead of scanning
     every merged link's observer list for every VP. *)
  let by_vp : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i m -> List.iter (fun vp -> Hashtbl.add by_vp vp i) m.seen_by)
    merged;
  let seen = Hashtbl.create 64 in
  List.map
    (fun vp ->
      List.iter (fun i -> Hashtbl.replace seen i ()) (Hashtbl.find_all by_vp vp);
      Hashtbl.length seen)
    vp_order
