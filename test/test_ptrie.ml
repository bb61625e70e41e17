open Netcore

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let sample_trie () =
  Ptrie.of_list
    [ (pfx "0.0.0.0/0", "default");
      (pfx "128.66.0.0/16", "X");
      (pfx "128.66.2.0/24", "Y");
      (pfx "128.66.2.128/25", "Z");
      (pfx "10.0.0.0/8", "ten") ]

let test_lpm () =
  let t = sample_trie () in
  let lookup a = Option.map snd (Ptrie.lpm (ip a) t) in
  Alcotest.(check (option string)) "most specific wins" (Some "Z") (lookup "128.66.2.200");
  Alcotest.(check (option string)) "mid specific" (Some "Y") (lookup "128.66.2.5");
  Alcotest.(check (option string)) "covering" (Some "X") (lookup "128.66.3.1");
  Alcotest.(check (option string)) "default" (Some "default") (lookup "8.8.8.8");
  Alcotest.(check (option string)) "ten" (Some "ten") (lookup "10.255.0.1")

let test_lpm_no_default () =
  let t = Ptrie.add (pfx "192.0.2.0/24") 1 Ptrie.empty in
  Alcotest.(check bool) "miss" true (Ptrie.lpm (ip "8.8.8.8") t = None);
  Alcotest.(check bool) "hit" true (Ptrie.lpm (ip "192.0.2.9") t = Some (pfx "192.0.2.0/24", 1))

let test_exact () =
  let t = sample_trie () in
  Alcotest.(check (option string)) "exact hit" (Some "Y")
    (Ptrie.find_exact (pfx "128.66.2.0/24") t);
  Alcotest.(check (option string)) "exact miss on different len" None
    (Ptrie.find_exact (pfx "128.66.2.0/23") t)

let test_remove () =
  let t = sample_trie () in
  let t = Ptrie.update (pfx "128.66.2.0/24") (fun _ -> None) t in
  Alcotest.(check (option string)) "falls back to covering" (Some "X")
    (Option.map snd (Ptrie.lpm (ip "128.66.2.5") t));
  Alcotest.(check (option string)) "more specific unaffected" (Some "Z")
    (Option.map snd (Ptrie.lpm (ip "128.66.2.200") t));
  Alcotest.(check int) "cardinal drops" 4 (Ptrie.cardinal t)

let test_replace () =
  let t = Ptrie.add (pfx "10.0.0.0/8") "new" (sample_trie ()) in
  Alcotest.(check int) "cardinal unchanged" 5 (Ptrie.cardinal t);
  Alcotest.(check (option string)) "value replaced" (Some "new")
    (Ptrie.find_exact (pfx "10.0.0.0/8") t)

let test_subtree () =
  let t = sample_trie () in
  let sub = List.map (fun (p, _) -> Prefix.to_string p) (Ptrie.subtree (pfx "128.66.0.0/16") t) in
  Alcotest.(check (list string)) "subtree bindings"
    [ "128.66.0.0/16"; "128.66.2.0/24"; "128.66.2.128/25" ]
    (List.sort compare sub)

let test_bindings_roundtrip () =
  let t = sample_trie () in
  let t' = Ptrie.of_list (Ptrie.bindings t) in
  Alcotest.(check int) "same cardinal" (Ptrie.cardinal t) (Ptrie.cardinal t');
  List.iter
    (fun (p, v) ->
      Alcotest.(check (option string)) (Prefix.to_string p) (Some v) (Ptrie.find_exact p t'))
    (Ptrie.bindings t)

let prefix_gen =
  QCheck.Gen.(
    map2
      (fun addr len -> Prefix.make (Ipv4.of_int (addr * 1021)) len)
      (int_bound 0x3FFFFF)
      (int_range 4 32))

let arb_prefix_list =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map Prefix.to_string l))
    QCheck.Gen.(list_size (int_range 1 60) prefix_gen)

let prop_lpm_agrees_with_scan =
  QCheck.Test.make ~name:"lpm agrees with linear scan" ~count:200 arb_prefix_list (fun ps ->
      let t = Ptrie.of_list (List.map (fun p -> (p, Prefix.to_string p)) ps) in
      let addr = Prefix.first (List.hd ps) in
      let expected =
        List.filter (fun p -> Prefix.mem addr p) ps
        |> List.sort (fun a b -> Int.compare (Prefix.len b) (Prefix.len a))
      in
      match (Ptrie.lpm addr t, expected) with
      | None, [] -> true
      | Some (p, _), best :: _ -> Prefix.len p = Prefix.len best
      | _ -> false)

let prop_add_then_find =
  QCheck.Test.make ~name:"added prefixes are findable" ~count:200 arb_prefix_list (fun ps ->
      let t = Ptrie.of_list (List.map (fun p -> (p, ())) ps) in
      List.for_all (fun p -> Ptrie.find_exact p t = Some ()) ps)

let suite =
  [ Alcotest.test_case "longest prefix match" `Quick test_lpm;
    Alcotest.test_case "lpm without default" `Quick test_lpm_no_default;
    Alcotest.test_case "exact lookup" `Quick test_exact;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "replace" `Quick test_replace;
    Alcotest.test_case "subtree" `Quick test_subtree;
    Alcotest.test_case "bindings roundtrip" `Quick test_bindings_roundtrip;
    Qc.to_alcotest prop_lpm_agrees_with_scan;
    Qc.to_alcotest prop_add_then_find ]
