open Netcore
open Bgpdata

let sample () =
  let t = As_rel.empty in
  let t = As_rel.add_c2p t ~provider:3356 ~customer:64500 in
  let t = As_rel.add_c2p t ~provider:7018 ~customer:64500 in
  let t = As_rel.add_c2p t ~provider:64500 ~customer:64501 in
  let t = As_rel.add_p2p t 3356 7018 in
  let t = As_rel.add_p2p t 64500 64502 in
  t

let test_rel_queries () =
  let t = sample () in
  Alcotest.(check bool) "provider seen from customer" true
    (As_rel.rel t ~of_:64500 ~with_:3356 = Some As_rel.Provider);
  Alcotest.(check bool) "customer seen from provider" true
    (As_rel.rel t ~of_:3356 ~with_:64500 = Some As_rel.Customer);
  Alcotest.(check bool) "peer symmetric" true
    (As_rel.rel t ~of_:3356 ~with_:7018 = Some As_rel.Peer
    && As_rel.rel t ~of_:7018 ~with_:3356 = Some As_rel.Peer);
  Alcotest.(check bool) "unknown" true (As_rel.rel t ~of_:64501 ~with_:3356 = None)

let test_sets () =
  let t = sample () in
  Alcotest.(check (list int)) "providers" [ 3356; 7018 ]
    (Asn.Set.elements (As_rel.providers t 64500));
  Alcotest.(check (list int)) "customers" [ 64501 ]
    (Asn.Set.elements (As_rel.customers t 64500));
  Alcotest.(check (list int)) "peers" [ 64502 ] (Asn.Set.elements (As_rel.peers t 64500));
  Alcotest.(check (list int)) "neighbors" [ 3356; 7018; 64501; 64502 ]
    (Asn.Set.elements (As_rel.neighbors t 64500))

let test_predicates () =
  let t = sample () in
  Alcotest.(check bool) "is_provider_of" true
    (As_rel.is_provider_of t ~provider:3356 ~customer:64500);
  Alcotest.(check bool) "not provider reversed" false
    (As_rel.is_provider_of t ~provider:64500 ~customer:3356);
  Alcotest.(check bool) "is_peer" true (As_rel.is_peer t 64500 64502);
  Alcotest.(check bool) "known" true (As_rel.known t 64500 64501);
  Alcotest.(check bool) "unknown pair" false (As_rel.known t 64501 64502)

let test_roundtrip () =
  let t = sample () in
  match As_rel.of_lines (As_rel.to_lines t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    Alcotest.(check int) "edges preserved" (As_rel.edge_count t) (As_rel.edge_count t');
    Asn.Set.iter
      (fun a ->
        Asn.Set.iter
          (fun b ->
            Alcotest.(check bool)
              (Printf.sprintf "rel %d-%d" a b)
              true
              (As_rel.rel t ~of_:a ~with_:b = As_rel.rel t' ~of_:a ~with_:b))
          (As_rel.asns t))
      (As_rel.asns t)

let test_parse_format () =
  match As_rel.of_lines [ "# comment"; "3356|64500|-1"; "3356|7018|0"; "" ] with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check bool) "c2p parsed" true
      (As_rel.is_provider_of t ~provider:3356 ~customer:64500);
    Alcotest.(check bool) "p2p parsed" true (As_rel.is_peer t 3356 7018);
    Alcotest.(check bool) "bad kind rejected" true
      (Result.is_error (As_rel.of_lines [ "1|2|7" ]))

let test_edge_count () =
  Alcotest.(check int) "edges" 5 (As_rel.edge_count (sample ()))

let suite =
  [ Alcotest.test_case "relationship queries" `Quick test_rel_queries;
    Alcotest.test_case "neighbor sets" `Quick test_sets;
    Alcotest.test_case "predicates" `Quick test_predicates;
    Alcotest.test_case "text roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "parse format" `Quick test_parse_format;
    Alcotest.test_case "edge count" `Quick test_edge_count ]
