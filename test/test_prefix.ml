open Netcore

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let check_pfx msg expected actual =
  Alcotest.(check string) msg expected (Prefix.to_string actual)

let test_parse () =
  check_pfx "parse /24" "192.0.2.0/24" (pfx "192.0.2.0/24");
  check_pfx "parse /0" "0.0.0.0/0" (pfx "0.0.0.0/0");
  check_pfx "parse /32" "10.1.2.3/32" (pfx "10.1.2.3/32");
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "reject %S" s) true (Prefix.of_string s = None))
    [ "192.0.2.0"; "192.0.2.0/33"; "192.0.2.0/-1"; "192.0.2.1/24"; "x/24"; "192.0.2.0/" ]

let test_canonical () =
  let p = Prefix.make (ip "192.0.2.129") 24 in
  check_pfx "host bits masked" "192.0.2.0/24" p

let test_mem () =
  let p = pfx "128.66.0.0/16" in
  Alcotest.(check bool) "first in" true (Prefix.mem (ip "128.66.0.0") p);
  Alcotest.(check bool) "last in" true (Prefix.mem (ip "128.66.255.255") p);
  Alcotest.(check bool) "below out" false (Prefix.mem (ip "128.65.255.255") p);
  Alcotest.(check bool) "above out" false (Prefix.mem (ip "128.67.0.0") p);
  Alcotest.(check bool) "default matches all" true (Prefix.mem (ip "8.8.8.8") (pfx "0.0.0.0/0"))

let test_bounds () =
  let p = pfx "192.0.2.64/26" in
  Alcotest.(check string) "first" "192.0.2.64" (Ipv4.to_string (Prefix.first p));
  Alcotest.(check string) "last" "192.0.2.127" (Ipv4.to_string (Prefix.last p));
  Alcotest.(check int) "size" 64 (Prefix.size p)

let test_split () =
  let lo, hi = Prefix.split (pfx "10.0.0.0/8") in
  check_pfx "low half" "10.0.0.0/9" lo;
  check_pfx "high half" "10.128.0.0/9" hi;
  Alcotest.check_raises "split /32 raises" (Invalid_argument "Prefix.split: /32") (fun () ->
      ignore (Prefix.split (pfx "10.0.0.1/32")))


let test_subnet_mate () =
  let mate a len = Option.map Ipv4.to_string (Prefix.subnet_mate (ip a) len) in
  Alcotest.(check (option string)) "/31 even" (Some "10.0.0.1") (mate "10.0.0.0" 31);
  Alcotest.(check (option string)) "/31 odd" (Some "10.0.0.0") (mate "10.0.0.1" 31);
  Alcotest.(check (option string)) "/30 .1" (Some "10.0.0.2") (mate "10.0.0.1" 30);
  Alcotest.(check (option string)) "/30 .2" (Some "10.0.0.1") (mate "10.0.0.2" 30);
  Alcotest.(check (option string)) "/30 network has no mate" None (mate "10.0.0.0" 30);
  Alcotest.(check (option string)) "/30 broadcast has no mate" None (mate "10.0.0.3" 30)

let prefix_gen =
  QCheck.Gen.(
    map2
      (fun addr len -> Prefix.make (Ipv4.of_int addr) len)
      (int_bound 0xFFFFFFF |> map (fun i -> i * 16))
      (int_bound 32))

let arb_prefix = QCheck.make ~print:Prefix.to_string prefix_gen

let prop_roundtrip =
  QCheck.Test.make ~name:"prefix string roundtrip" ~count:500 arb_prefix (fun p ->
      match Prefix.of_string (Prefix.to_string p) with
      | Some q -> Prefix.equal p q
      | None -> false)

let prop_mem_bounds =
  QCheck.Test.make ~name:"first and last are members" ~count:500 arb_prefix (fun p ->
      Prefix.mem (Prefix.first p) p && Prefix.mem (Prefix.last p) p)

let prop_split_partition =
  QCheck.Test.make ~name:"split partitions the prefix" ~count:500
    (QCheck.make
       ~print:Prefix.to_string
       QCheck.Gen.(
         map2
           (fun addr len -> Prefix.make (Ipv4.of_int addr) len)
           (int_bound 0xFFFFFFF |> map (fun i -> i * 16))
           (int_bound 31)))
    (fun p ->
      let lo, hi = Prefix.split p in
      Ipv4.equal (Prefix.first lo) (Prefix.first p)
      && Ipv4.equal (Prefix.last hi) (Prefix.last p)
      && Ipv4.equal (Ipv4.succ (Prefix.last lo)) (Prefix.first hi))

let suite =
  [ Alcotest.test_case "parse" `Quick test_parse;
    Alcotest.test_case "canonicalization" `Quick test_canonical;
    Alcotest.test_case "membership" `Quick test_mem;
    Alcotest.test_case "bounds and size" `Quick test_bounds;
    Alcotest.test_case "split" `Quick test_split;
    Alcotest.test_case "subnet mate" `Quick test_subnet_mate;
    Qc.to_alcotest prop_roundtrip;
    Qc.to_alcotest prop_mem_bounds;
    Qc.to_alcotest prop_split_partition ]
