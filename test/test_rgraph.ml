(* Router-graph invariants on simulated worlds, checked against the
   naive alias-group reference in [Alias_ref]. *)

module Gen = Topogen.Gen
module Ag = Aliasres.Alias_graph
open Netcore

let run_of params =
  lazy
    (let w = Gen.generate params in
     let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
     Bdrmap.Pipeline.execute engine inputs ~vp:(List.hd w.Gen.vps))

let tiny = run_of Topogen.Scenario.tiny
let small_access = run_of (Topogen.Scenario.small_access ~scale:0.15 ())

let set_of l = List.fold_left (fun s a -> Ipv4.Set.add a s) Ipv4.Set.empty l

let check_invariants run () =
  let run = Lazy.force run in
  let g = run.Bdrmap.Pipeline.graph and c = run.Bdrmap.Pipeline.collection in
  let addr = Ag.addr c.Bdrmap.Collect.aliases in
  let observed =
    set_of
      (List.concat_map
         (fun (t : Bdrmap.Trace.t) -> List.map (fun (_, i) -> addr i) t.hops)
         c.Bdrmap.Collect.traces)
  in
  let mates = set_of (List.map (fun (_, _, m) -> addr m) c.Bdrmap.Collect.mates) in
  (* [groups] only supplies the universe of table addresses; group
     membership is decided by the reference's own same_router scan. *)
  let aliases = c.Bdrmap.Collect.aliases in
  let mentioned = List.concat (Ag.groups aliases) in
  let same = Alias_ref.table_same aliases in
  let nodes = Bdrmap.Rgraph.nodes g in
  let covered =
    List.fold_left
      (fun acc (n : Bdrmap.Rgraph.node) ->
        let all = Ipv4.Set.union n.addrs n.extra_addrs in
        if not (Ipv4.Set.disjoint acc all) then
          Alcotest.failf "node %d shares an address with another node" n.id;
        if not (Ipv4.Set.subset n.addrs observed) then
          Alcotest.failf "node %d: addrs holds an unobserved address" n.id;
        if not (Ipv4.Set.disjoint n.extra_addrs observed) then
          Alcotest.failf "node %d: extra_addrs holds an observed address" n.id;
        let reference =
          Alias_ref.group_of same ~mentioned (Ipv4.Set.min_elt all)
        in
        Alcotest.(check (list string))
          (Printf.sprintf "node %d is its reference alias group" n.id)
          (List.map Ipv4.to_string reference)
          (List.map Ipv4.to_string (Ipv4.Set.elements all));
        Ipv4.Set.iter
          (fun a ->
            match Option.map (Bdrmap.Rgraph.node_of_id g) (Alias_ref.table_id aliases a) with
            | Some (Some m) when m.Bdrmap.Rgraph.id = n.id -> ()
            | _ -> Alcotest.failf "the table id of %s is not node %d" (Ipv4.to_string a) n.id)
          all;
        Ipv4.Set.union acc all)
      Ipv4.Set.empty nodes
  in
  Alcotest.(check bool) "nodes cover every observed and mate address" true
    (Ipv4.Set.subset (Ipv4.Set.union observed mates) covered);
  Alcotest.(check bool) "graph is not empty" true (nodes <> []);
  (* Alias members outside every node have no node. *)
  for i = 0 to Ag.length aliases - 1 do
    let a = Ag.addr aliases i in
    if (not (Ipv4.Set.mem a covered)) && Bdrmap.Rgraph.node_of_id g i <> None then
      Alcotest.failf "node_of_id %d: %s is in no node" i (Ipv4.to_string a)
  done

let suite =
  [ Alcotest.test_case "tiny: nodes are reference alias groups" `Quick
      (check_invariants tiny);
    Alcotest.test_case "small_access: nodes are reference alias groups" `Quick
      (check_invariants small_access) ]
