open Netcore

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let ranges_str t =
  List.map (fun (a, b) -> (Ipv4.to_string a, Ipv4.to_string b)) (Ipset.ranges t)

let test_paper_example () =
  (* From §5.3: X originates 128.66.0.0/16, Y originates 128.66.2.0/24;
     X's blocks are 128.66.0.0-128.66.1.255 and 128.66.3.0-128.66.255.255. *)
  let t = Ipset.add_prefix (pfx "128.66.0.0/16") Ipset.empty in
  let t = Ipset.remove_prefix (pfx "128.66.2.0/24") t in
  Alcotest.(check (list (pair string string)))
    "ranges match paper"
    [ ("128.66.0.0", "128.66.1.255"); ("128.66.3.0", "128.66.255.255") ]
    (ranges_str t)

let test_merge_adjacent () =
  let t = Ipset.empty in
  let t = Ipset.add_prefix (pfx "10.0.0.0/25") t in
  let t = Ipset.add_prefix (pfx "10.0.0.128/25") t in
  Alcotest.(check (list (pair string string)))
    "adjacent halves merge" [ ("10.0.0.0", "10.0.0.255") ] (ranges_str t)

let test_overlap_add () =
  let t = Ipset.add_range (ip "10.0.0.0") (ip "10.0.0.200") Ipset.empty in
  let t = Ipset.add_range (ip "10.0.0.100") (ip "10.0.1.0") t in
  Alcotest.(check (list (pair string string)))
    "single merged range" [ ("10.0.0.0", "10.0.1.0") ] (ranges_str t)

let test_remove_middle () =
  let t = Ipset.add_prefix (pfx "10.0.0.0/24") Ipset.empty in
  let t = Ipset.remove_prefix (pfx "10.0.0.64/26") t in
  Alcotest.(check (list (pair string string)))
    "hole" [ ("10.0.0.0", "10.0.0.63"); ("10.0.0.128", "10.0.0.255") ] (ranges_str t)

let range_gen =
  QCheck.Gen.(
    map2
      (fun a len ->
        let a = a * 7 in
        (a, min 0xFFFFFFFF (a + len)))
      (int_bound 0xFFFFF) (int_bound 5000))

let arb_ranges =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) l))
    QCheck.Gen.(list_size (int_range 1 20) range_gen)

let build ranges =
  List.fold_left
    (fun t (a, b) -> Ipset.add_range (Ipv4.of_int a) (Ipv4.of_int b) t)
    Ipset.empty ranges

let prop_disjoint_sorted =
  QCheck.Test.make ~name:"ranges stay sorted and disjoint" ~count:100 arb_ranges
    (fun ranges ->
      let t = build ranges in
      let rec ok = function
        | (_, b) :: ((c, _) :: _ as rest) -> Ipv4.to_int b + 1 < Ipv4.to_int c && ok rest
        | _ -> true
      in
      ok (Ipset.ranges t))

let suite =
  [ Alcotest.test_case "paper block example" `Quick test_paper_example;
    Alcotest.test_case "adjacent merge" `Quick test_merge_adjacent;
    Alcotest.test_case "overlapping add" `Quick test_overlap_add;
    Alcotest.test_case "remove middle" `Quick test_remove_middle;
    Qc.to_alcotest prop_disjoint_sorted ]
