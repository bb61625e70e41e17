open Bgpdata

let sample () =
  let t = As2org.empty in
  let t = As2org.add t 7018 "att" in
  let t = As2org.add t 7132 "att" in
  let t = As2org.add t 3356 "level3" in
  let t = As2org.add t 3549 "level3" in
  let t = As2org.add t 15169 "google" in
  t

let test_org_of () =
  let t = sample () in
  Alcotest.(check (option string)) "known" (Some "att") (As2org.org_of t 7018);
  Alcotest.(check (option string)) "unknown" None (As2org.org_of t 1)

let test_roundtrip () =
  let t = sample () in
  match As2org.of_lines (As2org.to_lines t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    Alcotest.(check (list string)) "lines preserved" (As2org.to_lines t) (As2org.to_lines t')

let test_parse_errors () =
  Alcotest.(check bool) "bad asn" true (Result.is_error (As2org.of_lines [ "x|org" ]));
  Alcotest.(check bool) "missing field" true (Result.is_error (As2org.of_lines [ "7018" ]))

let suite =
  [ Alcotest.test_case "org lookup" `Quick test_org_of;
    Alcotest.test_case "text roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors ]
