open Netcore
open Bgpdata

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let sample () =
  let t = Ixp.empty in
  let t = Ixp.add_prefix t (pfx "206.126.236.0/22") "equinix-ash" in
  let t = Ixp.add_prefix t (pfx "80.249.208.0/21") "ams-ix" in
  let t = Ixp.add_member t (ip "206.126.236.17") 3356 "equinix-ash" in
  let t = Ixp.add_member t (ip "80.249.209.1") 1299 "ams-ix" in
  t

let test_lookup () =
  let t = sample () in
  Alcotest.(check (option string)) "in lan" (Some "equinix-ash")
    (Ixp.ixp_of t (ip "206.126.239.255"));
  Alcotest.(check (option string)) "other lan" (Some "ams-ix")
    (Ixp.ixp_of t (ip "80.249.215.1"));
  Alcotest.(check (option string)) "not ixp" None (Ixp.ixp_of t (ip "8.8.8.8"));
  Alcotest.(check bool) "is_ixp_addr" true (Ixp.is_ixp_addr t (ip "206.126.236.1"))

let test_membership () =
  let t = sample () in
  Alcotest.(check (option int)) "member" (Some 3356) (Ixp.member_of t (ip "206.126.236.17"));
  Alcotest.(check (option int)) "unregistered addr" None
    (Ixp.member_of t (ip "206.126.236.18"))

let test_roundtrip () =
  let t = sample () in
  match Ixp.of_lines (Ixp.to_lines t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    Alcotest.(check int) "prefixes" 2 (List.length (Ixp.prefixes t'));
    Alcotest.(check int) "members" 2 (List.length (Ixp.members t'));
    Alcotest.(check (option int)) "member preserved" (Some 1299)
      (Ixp.member_of t' (ip "80.249.209.1"))

let test_parse_errors () =
  Alcotest.(check bool) "bad kind" true (Result.is_error (Ixp.of_lines [ "lan|10.0.0.0/24|x" ]));
  Alcotest.(check bool) "bad member" true
    (Result.is_error (Ixp.of_lines [ "member|10.0.0.1|x|name" ]))

let suite =
  [ Alcotest.test_case "lan lookup" `Quick test_lookup;
    Alcotest.test_case "membership" `Quick test_membership;
    Alcotest.test_case "text roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors ]
