open Netcore
open Bgpdata

let ip = Ipv4.of_string_exn

let sample () =
  let lines =
    [ "# RIR extended format";
      "arin|US|ipv4|192.0.2.0|256|20160101|allocated|org-a";
      "arin|US|ipv4|198.51.100.0|256|20160101|allocated|org-a";
      "ripencc|NL|ipv4|203.0.113.0|128|20150601|assigned|org-b";
      "apnic|AU|ipv4|100.64.0.0|1024|20140301|allocated|org-c" ]
  in
  match Delegation.of_lines lines with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let test_find () =
  let t = sample () in
  let check addr expect =
    Alcotest.(check (option string)) addr expect (Delegation.opaque_id_of t (ip addr))
  in
  check "192.0.2.0" (Some "org-a");
  check "192.0.2.255" (Some "org-a");
  check "192.0.3.0" None;
  check "203.0.113.127" (Some "org-b");
  check "203.0.113.128" None;
  check "100.64.3.255" (Some "org-c");
  check "100.64.4.0" None;
  check "8.8.8.8" None

let test_non_power_of_two () =
  (* RIR delegations can be e.g. 768 addresses; ensure interval logic holds. *)
  match Delegation.of_lines [ "arin|US|ipv4|10.0.0.0|768|20160101|allocated|org-x" ] with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check (option string)) "inside" (Some "org-x")
      (Delegation.opaque_id_of t (ip "10.0.2.255"));
    Alcotest.(check (option string)) "outside" None (Delegation.opaque_id_of t (ip "10.0.3.0"))

let test_roundtrip () =
  let t = sample () in
  match Delegation.of_lines (Delegation.to_lines t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    Alcotest.(check (list string)) "records preserved" (Delegation.to_lines t) (Delegation.to_lines t');
    Alcotest.(check (option string)) "lookup preserved" (Some "org-b")
      (Delegation.opaque_id_of t' (ip "203.0.113.5"))

let test_parse_errors () =
  let bad l = Alcotest.(check bool) l true (Result.is_error (Delegation.of_lines [ l ])) in
  bad "arin|US|ipv6|::1|256|20160101|allocated|org-a";
  bad "arin|US|ipv4|999.0.0.1|256|20160101|allocated|org-a";
  bad "arin|US|ipv4|10.0.0.0|0|20160101|allocated|org-a";
  bad "arin|US|ipv4|10.0.0.0|256"

let suite =
  [ Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "non power of two size" `Quick test_non_power_of_two;
    Alcotest.test_case "text roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors ]
