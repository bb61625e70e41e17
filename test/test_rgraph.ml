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
         (fun (t : Bdrmap.Trace.t) ->
           List.map (fun h -> addr (Bdrmap.Trace.id h)) (Array.to_list t.hops))
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
        let addrs = set_of (Bdrmap.Rgraph.observed_addrs g n.id) in
        let all = set_of (Bdrmap.Rgraph.all_addrs g n.id) in
        if not (Ipv4.Set.disjoint acc all) then
          Alcotest.failf "node %d shares an address with another node" n.id;
        if not (Ipv4.Set.subset addrs observed) then
          Alcotest.failf "node %d: observed_addrs holds an unobserved address" n.id;
        if not (Ipv4.Set.disjoint (Ipv4.Set.diff all addrs) observed) then
          Alcotest.failf "node %d: all_addrs holds an observed address outside observed_addrs" n.id;
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

let same_node (x : Bdrmap.Rgraph.node) (y : Bdrmap.Rgraph.node) =
  x.id = y.id && x.min_ttl = y.min_ttl && Asn.Set.equal x.dests y.dests
  && Asn.Set.equal x.last_toward y.last_toward && x.trace_count = y.trace_count

let ids l = List.map (fun (n : Bdrmap.Rgraph.node) -> n.id) l

(* The first difference between [g] and [h], if any. *)
let graph_diff g h =
  let module Rg = Bdrmap.Rgraph in
  if Rg.node_count g <> Rg.node_count h then Some "node count"
  else
    List.find_map
      (fun (x : Rg.node) ->
        let y = Rg.node h x.id in
        if not (same_node x y) then Some (Printf.sprintf "node %d" x.id)
        else if Rg.all_addrs g x.id <> Rg.all_addrs h y.id
                || Rg.observed_addrs g x.id <> Rg.observed_addrs h y.id
        then Some (Printf.sprintf "addresses of %d" x.id)
        else if ids (Rg.succs g x) <> ids (Rg.succs h y) then
          Some (Printf.sprintf "successors of %d" x.id)
        else if ids (Rg.preds g x) <> ids (Rg.preds h y) then
          Some (Printf.sprintf "predecessors of %d" x.id)
        else None)
      (Rg.nodes g)

(* [Rgraph.build] against [Rgraph_ref] on one VP of a corpus world at
   scale 0.1, the world and the VP drawn from the seed, and the graph
   that the store codec decodes against the built one. *)
let prop_build_matches_reference =
  QCheck.Test.make ~name:"graph build = list-and-set reference, and decodes to itself" ~count:20
    QCheck.(make ~print:Print.int ~shrink:Shrink.int Gen.(int_bound 1_000_000))
    (fun seed ->
      let scs = Topogen.Corpus.all in
      let sc = List.nth scs (seed mod List.length scs) in
      let w = Gen.generate { (sc.Topogen.Corpus.sc_params ~scale:0.1) with Gen.seed } in
      let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
      let vps = w.Gen.vps in
      let vp = List.nth vps (seed / 7 mod List.length vps) in
      let c = (Bdrmap.Pipeline.execute engine inputs ~vp).Bdrmap.Pipeline.collection in
      let g = Bdrmap.Rgraph.build c and r = Rgraph_ref.build c in
      let fail what = QCheck.Test.fail_reportf "%s at seed %d: %s" sc.sc_name seed what in
      if Bdrmap.Rgraph.node_count g <> Array.length r.nodes then fail "node count vs reference";
      Array.iteri
        (fun id (x : Bdrmap.Rgraph.node) ->
          let y = Bdrmap.Rgraph.node g id in
          let set s = Rgraph_ref.ISet.elements s in
          if not (same_node x y) then fail (Printf.sprintf "node %d vs reference" id);
          if Bdrmap.Rgraph.observed_addrs g id <> Ipv4.Set.elements r.addrs.(id) then
            fail (Printf.sprintf "observed addresses of %d vs reference" id);
          if Bdrmap.Rgraph.all_addrs g id
             <> Ipv4.Set.elements (Ipv4.Set.union r.addrs.(id) r.extra.(id))
          then fail (Printf.sprintf "all addresses of %d vs reference" id);
          if ids (Bdrmap.Rgraph.succs g y) <> set r.succ.(id) then
            fail (Printf.sprintf "successors of %d vs reference" id);
          if ids (Bdrmap.Rgraph.preds g y) <> set r.pred.(id) then
            fail (Printf.sprintf "predecessors of %d vs reference" id))
        r.nodes;
      let out = Store.Codec.writer 4096 in
      Bdrmap.Rgraph.encode out g;
      let b, len = Store.Codec.contents out in
      (match Store.Codec.decode (Bdrmap.Rgraph.decode c) (Bytes.sub_string b 0 len) ~pos:0 ~len with
      | Error _ -> fail "decode"
      | Ok d -> Option.iter (fun what -> fail ("decoded " ^ what)) (graph_diff g d));
      true)

let suite =
  [ Alcotest.test_case "tiny: nodes are reference alias groups" `Quick
      (check_invariants tiny);
    Alcotest.test_case "small_access: nodes are reference alias groups" `Quick
      (check_invariants small_access);
    Qc.to_alcotest prop_build_matches_reference ]
