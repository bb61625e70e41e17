(* Netcore.Lpm pinned against two references over random prefix sets:
   a naive linear scan (longest matching prefix by direct comparison)
   and Ptrie.lpm (the structure it replaces on the frozen fast path). *)

open Netcore

(* Random prefixes concentrated in a narrow address region so that
   lookups actually hit: nested and sibling prefixes across the /16
   slot boundary, including len < 16, = 16, > 16 and duplicates. *)
let prefix_gen =
  QCheck.Gen.(
    map2
      (fun addr len -> Prefix.make (Ipv4.of_int (0x0A000000 lor addr)) len)
      (int_bound 0x003F_FFFF) (int_range 4 32))

let arb_prefixes =
  QCheck.make
    ~print:(fun ps -> String.concat "," (List.map Prefix.to_string ps))
    QCheck.Gen.(list_size (int_range 0 80) prefix_gen)

let bindings_of ps = List.mapi (fun i p -> (p, i)) ps

(* Reference: longest match by linear scan; ties on length are
   impossible among distinct prefixes containing the same address. *)
let naive_lpm bindings addr =
  List.fold_left
    (fun acc (p, v) ->
      if Prefix.mem addr p then
        match acc with
        | Some (q, _) when Prefix.len q >= Prefix.len p -> acc
        | _ -> Some (p, v)
      else acc)
    None bindings

let probe_addrs ps =
  (* Probe each prefix's first/last address plus just-outside points,
     so both hits and misses are exercised. *)
  List.concat_map
    (fun p ->
      [ Prefix.first p; Prefix.last p;
        Ipv4.of_int (Ipv4.to_int (Prefix.first p) - 1);
        Ipv4.of_int (Ipv4.to_int (Prefix.last p) + 1) ])
    ps

(* Duplicate keys: Lpm.build keeps the later binding, like Ptrie.add. *)
let dedup_last bindings =
  List.fold_left (fun t (p, v) -> Ptrie.add p v t) Ptrie.empty bindings
  |> Ptrie.bindings

let prop_vs_naive =
  QCheck.Test.make ~name:"Lpm.lookup = naive longest-match scan" ~count:300
    arb_prefixes (fun ps ->
      let bindings = bindings_of ps in
      let t = Lpm.build bindings in
      let reference = dedup_last bindings in
      List.for_all
        (fun a -> Lpm.lookup t a = naive_lpm reference a)
        (probe_addrs ps))

let prop_vs_ptrie =
  QCheck.Test.make ~name:"Lpm.lookup = Ptrie.lpm" ~count:300 arb_prefixes (fun ps ->
      let bindings = bindings_of ps in
      let t = Lpm.build bindings in
      let trie = List.fold_left (fun t (p, v) -> Ptrie.add p v t) Ptrie.empty bindings in
      List.for_all (fun a -> Lpm.lookup t a = Ptrie.lpm a trie) (probe_addrs ps))

let test_empty () =
  let t = Lpm.build [] in
  Alcotest.(check int) "length" 0 (Lpm.length t);
  Alcotest.(check bool) "lookup misses" true (Lpm.lookup t (Ipv4.of_string_exn "10.0.0.1") = None)

let test_slot_boundaries () =
  (* A /8 spanning many slots, a /16 filling exactly one, a /24 bucket
     entry, and a /32 — the longest containing prefix must win at every
     level. *)
  let p8 = Prefix.of_string_exn "10.0.0.0/8" in
  let p16 = Prefix.of_string_exn "10.1.0.0/16" in
  let p24 = Prefix.of_string_exn "10.1.2.0/24" in
  let p32 = Prefix.of_string_exn "10.1.2.3/32" in
  let t = Lpm.build [ (p8, 8); (p16, 16); (p24, 24); (p32, 32) ] in
  let look s = Option.map fst (Lpm.lookup t (Ipv4.of_string_exn s)) in
  Alcotest.(check bool) "/32 wins" true (look "10.1.2.3" = Some p32);
  Alcotest.(check bool) "/24 wins" true (look "10.1.2.4" = Some p24);
  Alcotest.(check bool) "/16 wins" true (look "10.1.3.1" = Some p16);
  Alcotest.(check bool) "/8 wins" true (look "10.2.0.1" = Some p8);
  Alcotest.(check bool) "miss outside" true (look "11.0.0.1" = None);
  Alcotest.(check int) "length" 4 (Lpm.length t);
  Alcotest.(check int) "fold visits all" 4 (Lpm.fold (fun _ _ n -> n + 1) t 0)

let prop_lookup_idx =
  QCheck.Test.make ~name:"Lpm.lookup_idx resolves to Lpm.lookup" ~count:300
    arb_prefixes (fun ps ->
      let bindings = bindings_of ps in
      let t = Lpm.build bindings in
      List.for_all
        (fun a ->
          let i = Lpm.lookup_idx t a in
          if i < 0 then Lpm.lookup t a = None
          else Lpm.lookup t a = Some (Lpm.prefix_at t i, Lpm.value_at t i))
        (probe_addrs ps))

let test_lookup_idx_zero_alloc () =
  (* The CSR query path must not allocate: 100k lookup_idx calls over a
     table with both short-slot and bucket hits, misses included. The
     bound is a handful of words rather than exactly zero because
     [Gc.minor_words] itself returns a boxed float (2-3 words per
     call), and that noise must not hide a per-lookup allocation — one
     word per lookup would blow the bound by orders of magnitude. *)
  let t =
    Lpm.build
      (List.mapi
         (fun i s -> (Prefix.of_string_exn s, i))
         [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "10.1.2.3/32";
           "10.1.2.128/25"; "192.0.2.0/24" ])
  in
  let addrs =
    Array.map Ipv4.of_string_exn
      [| "10.1.2.3"; "10.1.2.200"; "10.1.9.9"; "10.200.0.1"; "192.0.2.77";
         "11.0.0.1" |]
  in
  let n = Array.length addrs in
  let acc = ref 0 in
  let run rounds =
    for k = 0 to rounds - 1 do
      acc := !acc + Lpm.lookup_idx t (Array.unsafe_get addrs (k mod n))
    done
  in
  run 1000 (* warm up: fault in any lazy runtime state before measuring *);
  let before = Gc.minor_words () in
  run 100_000;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "100k lookups allocated %.0f minor words" delta)
    true (delta < 256.0);
  Alcotest.(check bool) "lookups actually ran" true (!acc <> 0)

let suite =
  [ Alcotest.test_case "empty table" `Quick test_empty;
    Alcotest.test_case "slot boundary cases" `Quick test_slot_boundaries;
    Alcotest.test_case "lookup_idx allocates nothing" `Quick
      test_lookup_idx_zero_alloc;
    Qc.to_alcotest prop_vs_naive;
    Qc.to_alcotest prop_vs_ptrie;
    Qc.to_alcotest prop_lookup_idx ]
