open Netcore
module B = Bgpdata

type cls =
  | Host
  | External of Asn.Set.t
  | Ixp of string
  | Unrouted
  | Reserved

module SSet = Set.Make (String)

type t = {
  rib : B.Rib.t;
  ixp : B.Ixp.t;
  dels : B.Delegation.t;
  vp_asns : Asn.Set.t;
  host_orgs : SSet.t;  (* delegation opaque-ids of space the host routes *)
  memo : cls Ipv4.Tbl.t;
      (* per-run classification memo: every input is immutable after
         [create], so the class of an address never changes — and the
         collection loop classifies the same hop addresses over and
         over. Private to this instance; never shared across domains. *)
}

let create ~rib ~ixp ~delegations ~vp_asns =
  (* The organizations behind the hosting network's routed space: any
     delegation whose block backs a prefix originated by a VP AS. *)
  let host_orgs =
    List.fold_left
      (fun acc p ->
        match B.Delegation.opaque_id_of delegations (Prefix.first p) with
        | Some id -> SSet.add id acc
        | None -> acc)
      SSet.empty
      (B.Rib.prefixes_originated_by rib vp_asns)
  in
  { rib; ixp; dels = delegations; vp_asns; host_orgs; memo = Ipv4.Tbl.create 4096 }

let fresh t = { t with memo = Ipv4.Tbl.create 4096 }

let classify_uncached t a =
  if Ipv4.reserved a || Ipv4.private_use a then Reserved
  else
    match B.Ixp.ixp_of t.ixp a with
    | Some name -> Ixp name
    | None -> (
      let origins = B.Rib.origin_asns t.rib a in
      if Asn.Set.is_empty origins then (
        match B.Delegation.opaque_id_of t.dels a with
        | Some id when SSet.mem id t.host_orgs -> Host
        | Some _ | None -> Unrouted)
      else if not (Asn.Set.disjoint origins t.vp_asns) then Host
      else External origins)

let classify t a =
  match Ipv4.Tbl.find_opt t.memo a with
  | Some c -> c
  | None ->
    let c = classify_uncached t a in
    Ipv4.Tbl.add t.memo a c;
    c

let is_host t a =
  match classify t a with
  | Host -> true
  | External _ | Ixp _ | Unrouted | Reserved -> false

let single_external t a =
  match classify t a with
  | External origins when Asn.Set.cardinal origins = 1 -> Some (Asn.Set.min_elt origins)
  | External _ | Host | Ixp _ | Unrouted | Reserved -> None

let routed_prefixes t = B.Rib.cardinal t.rib
