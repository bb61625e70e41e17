(* Property-based tests over the core inference data structures. *)

open Netcore
module Ag = Aliasres.Alias_graph

let addr_of_int i = Ipv4.of_int (0x51000000 + (i land 0xFFFF))

(* Random op sequences over a small address universe. *)
type op = Alias of int * int | Not_alias of int * int

let op_gen =
  QCheck.Gen.(
    map3
      (fun kind a b -> if kind then Alias (a, b) else Not_alias (a, b))
      bool (int_bound 15) (int_bound 15))

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Alias (a, b) -> Printf.sprintf "A%d-%d" a b
             | Not_alias (a, b) -> Printf.sprintf "N%d-%d" a b)
           ops))
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

let apply ops =
  let g = Ag.Uf.create () in
  List.iter
    (function
      | Alias (a, b) -> Alias_ref.add_alias g (addr_of_int a) (addr_of_int b)
      | Not_alias (a, b) -> Alias_ref.add_not_alias g (addr_of_int a) (addr_of_int b))
    ops;
  g

let prop_vetoes_never_merged =
  (* The documented contract: a veto recorded while the two addresses are
     in different groups keeps them apart forever (vetoes never split
     existing groups retroactively). *)
  QCheck.Test.make ~name:"effective vetoes keep groups apart" ~count:300 arb_ops
    (fun ops ->
      let g = Ag.Uf.create () in
      let effective = ref [] in
      List.iter
        (function
          | Alias (a, b) -> Alias_ref.add_alias g (addr_of_int a) (addr_of_int b)
          | Not_alias (a, b) ->
            if not (Alias_ref.same_router g (addr_of_int a) (addr_of_int b)) then
              effective := (a, b) :: !effective;
            Alias_ref.add_not_alias g (addr_of_int a) (addr_of_int b))
        ops;
      List.for_all
        (fun (a, b) -> not (Alias_ref.same_router g (addr_of_int a) (addr_of_int b)))
        !effective)

let prop_groups_partition =
  QCheck.Test.make ~name:"groups form a partition" ~count:300 arb_ops (fun ops ->
      let g = apply ops in
      let groups = Ag.groups (fst (Ag.freeze g)) in
      let all = List.concat groups in
      let uniq = List.sort_uniq Ipv4.compare all in
      List.length all = List.length uniq
      && List.for_all
           (fun grp ->
             List.for_all
               (fun a -> List.for_all (fun b -> Alias_ref.same_router g a b) grp)
               grp)
           groups)

(* Seed-driven op sequences: one seed int is the whole counterexample.
   A third of the draws record a negative and then try the vetoed union. *)
let seeded_ops seed =
  let st = Random.State.make [| seed |] in
  List.concat
    (List.init (1 + Random.State.int st 60) (fun _ ->
         let a = Random.State.int st 16 and b = Random.State.int st 16 in
         match Random.State.int st 3 with
         | 0 -> [ Alias (a, b) ]
         | 1 -> [ Not_alias (a, b) ]
         | _ -> [ Not_alias (a, b); Alias (b, a) ]))

(* [hop_names c] is the address each trace hop of [c] names, in order;
   [mate_names c] the same for the mates. *)
let hop_names (c : Bdrmap.Collect.t) =
  List.concat_map
    (fun (t : Bdrmap.Trace.t) ->
      List.map (fun h -> Ag.addr c.aliases (Bdrmap.Trace.id h)) (Array.to_list t.hops))
    c.traces

let mate_names (c : Bdrmap.Collect.t) =
  List.map (fun (_, _, m) -> Ag.addr c.aliases m) c.mates

(* The freeze against the reference scan over the union-find, on
   seeded evidence plus seeded hop (observed) and mate (named)
   addresses, some of them never in the evidence. The hops form one
   trace and the named addresses mates, so the collection's ids are
   checked to name what was registered: fresh, after the text format
   and after the store codec. *)
let prop_freeze_matches_reference =
  QCheck.Test.make ~name:"alias freeze = naive reference partition" ~count:300
    QCheck.(make ~print:Print.int ~shrink:Shrink.int Gen.(int_bound 1_000_000))
    (fun seed ->
      let ops = seeded_ops seed in
      let g = apply ops in
      let st = Random.State.make [| seed; 1 |] in
      let draw () =
        List.init (Random.State.int st 12) (fun _ -> addr_of_int (Random.State.int st 24))
      in
      let observed = draw () and named = draw () in
      let trace =
        { Bdrmap.Trace.dst = addr_of_int 999; target_asn = 1;
          hops =
            Array.of_list
              (List.mapi
                 (fun i a -> Bdrmap.Trace.hop ~ttl:(i + 1) (Ag.Uf.intern g ~observed:true a))
                 observed);
          closing = Bdrmap.Trace.Nothing; stopped = false }
      in
      let mates =
        List.map
          (fun a ->
            let m = Ag.Uf.intern g ~observed:false a in
            (m, m, m))
          named
      in
      let c =
        Bdrmap.Collect.finish g [ trace ] mates
          ~sched:(Probesim.Scheduler.create ~pps:100.0) ~alias_pairs_tested:0
      in
      let t = c.aliases in
      let mentioned =
        List.sort_uniq Ipv4.compare
          (observed @ named
          @ List.concat_map
              (function
                | Alias (a, b) | Not_alias (a, b) -> [ addr_of_int a; addr_of_int b ])
              ops)
      in
      let never = addr_of_int 24 in
      if Ag.groups t <> Alias_ref.partition (Alias_ref.same_router g) ~mentioned then
        QCheck.Test.fail_report "frozen groups differ from the reference partition";
      let table = List.init (Ag.length t) (fun i -> (Ag.addr t i, Ag.observed t i)) in
      if table <> List.map (fun a -> (a, List.mem a observed)) mentioned then
        QCheck.Test.fail_report "table addresses or observed bits differ";
      if Alias_ref.table_id t never <> None then
        QCheck.Test.fail_reportf "unmentioned %s is in the table" (Ipv4.to_string never);
      let image encode x =
        let w = Store.Codec.writer 64 in
        encode w x;
        let b, len = Store.Codec.contents w in
        Bytes.sub_string b 0 len
      in
      let decode f s = Store.Codec.decode f s ~pos:0 ~len:(String.length s) in
      let names what (c : Bdrmap.Collect.t) =
        if hop_names c <> observed || mate_names c <> named then
          QCheck.Test.fail_reportf "%s: an id names another address" what
      in
      names "fresh" c;
      (match Bdrmap.Output.collection_of_lines (Bdrmap.Output.collection_to_lines c) with
      | Ok c' -> names "text round trip" c'
      | Error e -> QCheck.Test.fail_report e);
      (match decode Bdrmap.Collect.decode (image Bdrmap.Collect.encode c) with
      | Ok c' -> names "store round trip" c'
      | Error _ -> QCheck.Test.fail_report "the collection does not decode");
      match decode Ag.decode (image Ag.encode t) with
      | Ok t' -> Ag.groups t' = Ag.groups t && List.length (Ag.groups t) = Ag.group_count t
      | Error _ -> QCheck.Test.fail_report "the table does not decode")

let prop_same_router_symmetric =
  QCheck.Test.make ~name:"same_router is symmetric" ~count:300 arb_ops (fun ops ->
      let g = apply ops in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let frozen = fst (Ag.freeze g) in
              let same = Alias_ref.same_router g (addr_of_int a) (addr_of_int b) in
              same = Alias_ref.same_router g (addr_of_int b) (addr_of_int a)
              && same = Alias_ref.table_same frozen (addr_of_int b) (addr_of_int a))
            [ 0; 3; 7; 11 ])
        [ 1; 5; 9; 14 ])

(* As_rel text format round-trips arbitrary relationship graphs. *)
let arb_rel_graph =
  QCheck.make
    ~print:(fun edges -> String.concat ";" (List.map (fun (a, b, k) ->
        Printf.sprintf "%d-%d:%b" a b k) edges))
    QCheck.Gen.(
      list_size (int_range 1 40)
        (map3
           (fun a b k -> (a + 1, a + 2 + b, k))
           (int_bound 50) (int_bound 50) bool))

let prop_as_rel_roundtrip =
  QCheck.Test.make ~name:"as_rel text roundtrip" ~count:200 arb_rel_graph (fun edges ->
      let t =
        List.fold_left
          (fun t (a, b, is_c2p) ->
            if is_c2p then Bgpdata.As_rel.add_c2p t ~provider:a ~customer:b
            else Bgpdata.As_rel.add_p2p t a b)
          Bgpdata.As_rel.empty edges
      in
      match Bgpdata.As_rel.of_lines (Bgpdata.As_rel.to_lines t) with
      | Error _ -> false
      | Ok t' ->
        Asn.Set.for_all
          (fun a ->
            Asn.Set.for_all
              (fun b ->
                Bgpdata.As_rel.rel t ~of_:a ~with_:b
                = Bgpdata.As_rel.rel t' ~of_:a ~with_:b)
              (Bgpdata.As_rel.asns t))
          (Bgpdata.As_rel.asns t))

(* Trace.iter_pairs against a list-based reference: hop i pairs with
   hop i + 1, in trace order, flagged when their TTLs are not adjacent. *)
let ref_pairs hops =
  let a = Array.of_list hops in
  List.init
    (max 0 (Array.length a - 1))
    (fun i ->
      let ttl1, id1 = a.(i) and ttl2, id2 = a.(i + 1) in
      (id1, id2, ttl2 - ttl1 >= 2))

let arb_hops =
  QCheck.make
    ~print:(fun l ->
      String.concat "," (List.map (fun (ttl, id) -> Printf.sprintf "%d:%d" ttl id) l))
    QCheck.Gen.(
      map
        (fun l -> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) l)
        (list_size (int_range 0 12) (pair (int_range 1 30) (int_bound 1000))))

let prop_trace_pairs =
  QCheck.Test.make ~name:"trace pairs length and order" ~count:300 arb_hops (fun hops ->
      let t =
        { Bdrmap.Trace.dst = addr_of_int 999;
          target_asn = 1;
          hops = Array.of_list (List.map (fun (ttl, id) -> Bdrmap.Trace.hop ~ttl id) hops);
          closing = Bdrmap.Trace.Nothing;
          stopped = false }
      in
      let pairs = ref [] in
      Bdrmap.Trace.iter_pairs (fun a b gap -> pairs := (a, b, gap) :: !pairs) t;
      List.rev !pairs = ref_pairs hops)

(* Walking a 30-hop trace's pairs costs what an empty loop does. *)
let test_iter_pairs_allocates_nothing () =
  let t =
    { Bdrmap.Trace.dst = addr_of_int 999;
      target_asn = 1;
      hops = Array.init 30 (fun i -> Bdrmap.Trace.hop ~ttl:(1 + i + (i / 7)) (3 * i));
      closing = Bdrmap.Trace.Nothing;
      stopped = false }
  in
  let sum = ref 0 in
  let f a b gap = sum := !sum + a + b + Bool.to_int gap in
  let words walk =
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      walk ()
    done;
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.0)) "minor words for 10k walks" (words ignore)
    (words (fun () -> Bdrmap.Trace.iter_pairs f t));
  Alcotest.(check bool) "pairs were walked" true (!sum > 0)

(* Rib LPM agrees with a linear scan over its own prefixes. *)
let prop_rib_lpm =
  QCheck.Test.make ~name:"rib lpm agrees with scan" ~count:150
    (QCheck.make
       ~print:(fun l -> string_of_int (List.length l))
       QCheck.Gen.(
         list_size (int_range 1 25)
           (map2
              (fun a len -> (a land 0x00FFFFFF, 8 + (len mod 17)))
              (int_bound 0xFFFFFF) (int_bound 16))))
    (fun specs ->
      let rib =
        List.fold_left
          (fun rib (a, len) ->
            let p = Prefix.make (Ipv4.of_int (0x50000000 lor a)) len in
            Bgpdata.Rib.add_route rib p [ 1; (a mod 97) + 2 ])
          Bgpdata.Rib.empty specs
      in
      let probe = Ipv4.of_int (0x50000000 lor (fst (List.hd specs))) in
      let expected =
        Bgpdata.Rib.prefixes rib
        |> List.filter (fun p -> Prefix.mem probe p)
        |> List.sort (fun a b -> Int.compare (Prefix.len b) (Prefix.len a))
      in
      match (Bgpdata.Rib.lpm rib probe, expected) with
      | None, [] -> true
      | Some (p, _), best :: _ -> Prefix.len p = Prefix.len best
      | _ -> false)

let suite =
  [ Qc.to_alcotest prop_vetoes_never_merged;
    Qc.to_alcotest prop_groups_partition;
    Qc.to_alcotest prop_freeze_matches_reference;
    Qc.to_alcotest prop_same_router_symmetric;
    Qc.to_alcotest prop_as_rel_roundtrip;
    Qc.to_alcotest prop_trace_pairs;
    Alcotest.test_case "trace iter_pairs allocates nothing" `Quick
      test_iter_pairs_allocates_nothing;
    Qc.to_alcotest prop_rib_lpm ]
