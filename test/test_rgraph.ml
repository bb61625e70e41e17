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
  let observed =
    set_of (List.concat_map Bdrmap.Trace.hop_addrs c.Bdrmap.Collect.traces)
  in
  let mates = set_of (List.map (fun (_, _, m) -> m) c.Bdrmap.Collect.mates) in
  (* [groups] only supplies the universe of table addresses; group
     membership is decided by the reference's own same_router scan. *)
  let mentioned = List.concat (Ag.groups c.Bdrmap.Collect.aliases) in
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
          Alias_ref.group_of (Ag.same_router c.Bdrmap.Collect.aliases) ~mentioned
            (Ipv4.Set.min_elt all)
        in
        Alcotest.(check (list string))
          (Printf.sprintf "node %d is its reference alias group" n.id)
          (List.map Ipv4.to_string reference)
          (List.map Ipv4.to_string (Ipv4.Set.elements all));
        Ipv4.Set.iter
          (fun a ->
            match Bdrmap.Rgraph.node_of_addr g a with
            | Some m when m.Bdrmap.Rgraph.id = n.id -> ()
            | _ ->
              Alcotest.failf "node_of_addr %s is not node %d" (Ipv4.to_string a)
                n.id)
          all;
        Ipv4.Set.union acc all)
      Ipv4.Set.empty nodes
  in
  Alcotest.(check bool) "nodes cover every observed and mate address" true
    (Ipv4.Set.subset (Ipv4.Set.union observed mates) covered);
  Alcotest.(check bool) "graph is not empty" true (nodes <> []);
  (* Alias members outside every node, and an address nothing mentions,
     have no node. *)
  List.iter
    (fun a ->
      if (not (Ipv4.Set.mem a covered)) && Bdrmap.Rgraph.node_of_addr g a <> None
      then
        Alcotest.failf "node_of_addr %s: address is in no node"
          (Ipv4.to_string a))
    (Ipv4.of_string_exn "0.0.0.1" :: mentioned)

let suite =
  [ Alcotest.test_case "tiny: nodes are reference alias groups" `Quick
      (check_invariants tiny);
    Alcotest.test_case "small_access: nodes are reference alias groups" `Quick
      (check_invariants small_access) ]
