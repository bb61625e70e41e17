open Netcore
module Snapshot = Routing.Bgp.Snapshot

type t = {
  host_asns : Asn.Set.t;
  host_asn : Asn.t;
  border : int Lpm.t;  (* /32 border address -> operator ASN *)
  snap : Routing.Bgp.snapshot;
  origin_of_pslot : int array;  (* by snapshot prefix slot; 0 = unknown *)
  prov : string Ipv4.Tbl.t;
  crossings_by_neighbor : (Asn.t, string list) Hashtbl.t;
  border_count : int;
}

let addr_csv addrs =
  if Ipv4.Set.is_empty addrs then "-"
  else String.concat "," (List.map Ipv4.to_string (Ipv4.Set.elements addrs))

let tag_csv tags = String.concat "," (List.map Bdrmap.Output.tag_slug tags)
let vp_csv vps = String.concat "," vps

let link_line (m : Bdrmap.Aggregate.merged) =
  Printf.sprintf "link|%s|%s|%d|%s|%s" (addr_csv m.near_addrs) (addr_csv m.far_addrs)
    m.neighbor (tag_csv m.tags) (vp_csv m.seen_by)

let prov_line addr side asn (m : Bdrmap.Aggregate.merged) =
  Printf.sprintf "provenance|%s|%s|AS%d|%s|%s" (Ipv4.to_string addr) side asn
    (tag_csv m.tags) (vp_csv m.seen_by)

let build ~snapshot (mf : Bdrmap.Mapfile.t) =
  if Asn.Set.is_empty mf.host_asns then
    invalid_arg "Qmap.build: mapfile has no hosting ASes";
  let host_asn = Asn.Set.min_elt mf.host_asns in
  let border_bindings = ref [] in
  let prov = Ipv4.Tbl.create 256 in
  let crossings_by_neighbor = Hashtbl.create 64 in
  List.iter
    (fun (m : Bdrmap.Aggregate.merged) ->
      let line = link_line m in
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt crossings_by_neighbor m.neighbor)
      in
      Hashtbl.replace crossings_by_neighbor m.neighbor (line :: prev);
      let side which asn addr =
        border_bindings := (Prefix.make addr 32, asn) :: !border_bindings;
        (* First link wins per address, so provenance is stable however
           many merged links share an interface. *)
        if not (Ipv4.Tbl.mem prov addr) then
          Ipv4.Tbl.add prov addr (prov_line addr which asn m)
      in
      Ipv4.Set.iter (side "near" host_asn) m.near_addrs;
      Ipv4.Set.iter (side "far" m.neighbor) m.far_addrs)
    mf.merged;
  (* Merged-list order is deterministic; reverse the fold so Lpm's
     later-binding-wins tie-break matches it. *)
  let border = Lpm.build (List.rev !border_bindings) in
  Hashtbl.iter
    (fun k lines -> Hashtbl.replace crossings_by_neighbor k (List.rev lines))
    (Hashtbl.copy crossings_by_neighbor);
  let origin_of_pslot = Array.make (max 1 (Snapshot.prefix_count snapshot)) 0 in
  List.iter
    (fun (p, asn) ->
      let slot = Snapshot.prefix_slot snapshot p in
      if slot >= 0 then origin_of_pslot.(slot) <- asn)
    mf.origins;
  { host_asns = mf.host_asns;
    host_asn;
    border;
    snap = snapshot;
    origin_of_pslot;
    prov;
    crossings_by_neighbor;
    border_count = Lpm.length border }

let host_asn t = t.host_asn
let border_count t = t.border_count

let owner t a =
  let idx = Lpm.lookup_idx t.border a in
  if idx >= 0 then Lpm.value_at t.border idx
  else
    let pslot = Snapshot.lookup_pslot t.snap a in
    if pslot >= 0 then Array.unsafe_get t.origin_of_pslot pslot else 0

let crossings t a b =
  let lines_of neighbor =
    Option.value ~default:[] (Hashtbl.find_opt t.crossings_by_neighbor neighbor)
  in
  if Asn.Set.mem a t.host_asns then lines_of b
  else if Asn.Set.mem b t.host_asns then lines_of a
  else []

let provenance t a =
  match Ipv4.Tbl.find_opt t.prov a with
  | Some line -> Some line
  | None ->
    (* Not a border interface: report the covering origin instead, so
       "why did owner say AS X" is answerable for any routed address. *)
    let pslot = Snapshot.lookup_pslot t.snap a in
    let asn = if pslot < 0 then 0 else t.origin_of_pslot.(pslot) in
    if asn = 0 then None
    else
      Some
        (Printf.sprintf "provenance|%s|origin|AS%d|%s|-" (Ipv4.to_string a) asn
           (Prefix.to_string (Snapshot.prefix_of_slot t.snap pslot)))

let sample_addrs t =
  let seen = Ipv4.Tbl.create 1024 in
  let acc = ref [] in
  let push a =
    if not (Ipv4.Tbl.mem seen a) then begin
      Ipv4.Tbl.add seen a ();
      acc := a :: !acc
    end
  in
  Lpm.fold (fun p _ () -> push (Prefix.first p)) t.border ();
  for i = 0 to Snapshot.prefix_count t.snap - 1 do
    push (Prefix.first (Snapshot.prefix_of_slot t.snap i))
  done;
  Array.of_list (List.rev !acc)
