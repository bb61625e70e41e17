(* The packed snapshot (flat route words + next-hop arena in
   GC-invisible Bigarrays) pinned against the boxed reference model (bgp_ref.ml) over random worlds and random
   relationship graphs, plus the raw-byte codec: round-trip identity,
   and typed rejection of corrupted, truncated, and mislabeled entries
   in the lib/store miss style. *)

open Netcore
module Net = Topogen.Net
module Gen = Topogen.Gen
module Bgp = Routing.Bgp
module S = Bgp.Snapshot

let bgp_of (w : Gen.world) =
  Bgp.create w.Gen.net w.Gen.rels_truth ~originated:(Gen.originated w)
    ~selective:w.Gen.selective

let proj = Bgp_ref.proj

(* Random worlds: the r_and_e preset (the smallest parameterized
   scenario) across random seeds and scales. Worlds are deterministic
   in (scale, seed), so shrinking stays meaningful. *)
let arb_world =
  QCheck.make
    ~print:(fun (scale, seed) -> Printf.sprintf "scale=%.2f seed=%d" scale seed)
    QCheck.Gen.(pair (map (fun n -> 0.3 +. (0.1 *. float_of_int n)) (int_bound 7))
                  (int_bound 10_000))

(* The packed snapshot answers like the boxed reference model
   (bgp_ref.ml): every (AS, prefix) route and as_path, and LPM lookups
   on hits, misses and prefix boundaries. *)
let prop_packed_equals_boxed =
  QCheck.Test.make ~name:"packed snapshot = boxed evaluator on random worlds"
    ~count:10 arb_world (fun (scale, seed) ->
      let w = Gen.generate (Topogen.Scenario.r_and_e ~scale ~seed ()) in
      let reference = Bgp_ref.of_world w in
      match Bgp_ref.check_snapshot reference (Bgp.freeze (bgp_of w)) with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_reportf "snapshot: %s" m)

(* Row ids are numbered by first prefix slot: each slot's row is at
   most one past every row before it, and the last new id is the row
   count. *)
let canonical_rows snap =
  let next = ref 0 in
  for pslot = 0 to S.prefix_count snap - 1 do
    let r = S.row_of_pslot snap pslot in
    if r > !next then QCheck.Test.fail_reportf "slot %d takes row %d before row %d" pslot r !next;
    if r = !next then incr next
  done;
  !next = S.row_count snap || QCheck.Test.fail_reportf "%d rows counted, %d used" (S.row_count snap) !next

(* Random relationship graphs, far from the generator's shapes: any
   mix of c2p (in either or both directions), p2p and missing edges
   between 4-14 ASes, provider cycles included, and a few prefixes with
   one to three origins (sometimes an ASN outside the graph). The
   snapshot must answer every cell like the reference model. This is
   where the kernel's stage order matters: a customer
   reachable both from a near peer-routed provider and a far up-routed
   one takes the near one's route. Each case is one seed, so a failure
   shrinks to one seed.

   Origin sets repeat, so rows are shared: each set comes back on a
   later prefix rebuilt in descending insertion order (a different tree
   shape) and once more with the out-of-graph ASN 999 added, which the
   kernel ignores. Every prefix must still match the reference; two
   prefixes share a row exactly when their origin sets agree inside
   the graph, and row ids are canonical. *)
let prop_kernel_random_graphs =
  QCheck.Test.make ~name:"kernel = reference model on random relationship graphs"
    ~count:300
    QCheck.(make ~print:Print.int Gen.(int_bound 1_000_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 4 + Random.State.int st 11 in
      let rels = ref Bgpdata.As_rel.empty in
      for a = 1 to n do
        for b = a + 1 to n do
          match Random.State.int st 8 with
          | 0 | 1 -> rels := Bgpdata.As_rel.add_c2p !rels ~provider:a ~customer:b
          | 2 | 3 -> rels := Bgpdata.As_rel.add_c2p !rels ~provider:b ~customer:a
          | 4 -> rels := Bgpdata.As_rel.add_p2p !rels a b
          | 5 ->
            rels := Bgpdata.As_rel.add_c2p !rels ~provider:a ~customer:b;
            rels := Bgpdata.As_rel.add_p2p !rels a b
          | _ -> ()
        done
      done;
      let sets =
        List.init
          (1 + Random.State.int st 3)
          (fun _ ->
            let origin () =
              if Random.State.int st 10 = 0 then 999 else 1 + Random.State.int st n
            in
            Asn.Set.of_list (List.init (1 + Random.State.int st 3) (fun _ -> origin ())))
      in
      let reordered s =
        List.fold_left (fun acc a -> Asn.Set.add a acc) Asn.Set.empty
          (List.rev (Asn.Set.elements s))
      in
      let sets = sets @ List.map reordered sets @ List.map (Asn.Set.add 999) sets in
      let originated =
        List.mapi (fun i s -> (Prefix.make (Ipv4.of_int (0x0A000000 + (i lsl 8))) 24, s)) sets
      in
      let net = Net.create () in
      let bgp = Bgp.create net !rels ~originated ~selective:Asn.Map.empty in
      let reference = Bgp_ref.create net !rels ~originated in
      let snap = Bgp.freeze bgp in
      let in_graph s = Asn.Set.filter (fun a -> S.asn_slot snap a >= 0) s in
      let row p = S.row_of_pslot snap (S.prefix_slot snap p) in
      let same_row (p1, s1) (p2, s2) =
        Asn.Set.equal (in_graph s1) (in_graph s2) = (row p1 = row p2)
      in
      match Bgp_ref.check_snapshot reference snap with
      | Error m -> QCheck.Test.fail_reportf "snapshot: %s" m
      | Ok () ->
        (List.for_all (fun a -> List.for_all (same_row a) originated) originated
        || QCheck.Test.fail_report "rows do not follow the in-graph origin sets")
        && canonical_rows snap)

(* The world `experiments fig14` sweeps, at scale 0.1: every route,
   AS path and boundary lookup of its snapshot against the reference
   model. The -j1 and -jN sweeps both answer from this one snapshot, so
   this is the pipeline-sized packed-vs-boxed check. *)
let test_fig14_world_matches_reference () =
  let w = Gen.generate (Experiments.Exp_fig14.params ~scale:0.1) in
  match Bgp_ref.check_snapshot (Bgp_ref.of_world w) (Bgp.freeze (bgp_of w)) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "fig14 world: %s" m

(* [freeze] propagates each distinct origin set once, into one row per
   set. Expanded through [row_of_pslot], the rows must be byte for byte
   the words one propagation per prefix writes, and the arena the same.
   Two pins per world: the MD5 of the expanded route words and the
   arena, each word big-endian as codec versions up to 4 wrote them
   (taken when [freeze] still propagated every prefix), and the MD5 of
   the whole image (re-taken for codec version 5's row layout). *)
let pinned_worlds =
  let moas = Option.get (Topogen.Corpus.by_name "moas_storm") in
  [ ( "large_access scale 0.3 seed 22",
      Topogen.Scenario.large_access ~scale:0.3 ~seed:22 (),
      "c9f975b9d34191da531030073fd5d577",
      "8a6ca214aabbef4932d21a4b5d258444" );
    ( "moas_storm scale 0.1",
      moas.Topogen.Corpus.sc_params ~scale:0.1,
      "c168f46dd477f4ab40102e772b0d12a0",
      "a70c05c12e37195a961aeba1580ca591" ) ]

let pinned_images =
  lazy
    (List.map
       (fun (name, params, arenas, image) ->
         let snap = Bgp.freeze (bgp_of (Gen.generate params)) in
         (name, snap, S.to_bytes snap, arenas, image))
       pinned_worlds)

(* One word row per prefix slot, then the arena, as 8-byte big-endian
   words. *)
let expanded_words snap =
  let np = S.prefix_count snap and n = S.asn_count snap and na = S.arena_length snap in
  let b = Buffer.create (8 * ((np * n) + na)) in
  let put w = Buffer.add_int64_be b (Int64.of_int w) in
  for pslot = 0 to np - 1 do
    for aslot = 0 to n - 1 do
      put (S.word snap ~pslot ~aslot)
    done
  done;
  (* An arena entry is the next-hop slot at its offset; a word's
     offset is bits 32-61. *)
  let arena = Array.make na (-1) in
  for pslot = 0 to np - 1 do
    for aslot = 0 to n - 1 do
      let w = S.word snap ~pslot ~aslot in
      for k = 0 to S.word_nexthop_count w - 1 do
        arena.((w lsr 32) + k) <- S.nexthop_slot snap w k
      done
    done
  done;
  Array.iter put arena;
  Buffer.contents b

let test_freeze_arenas_pinned () =
  List.iter
    (fun (name, snap, _, arenas, _) ->
      Alcotest.(check string) name arenas (Digest.to_hex (Digest.string (expanded_words snap))))
    (Lazy.force pinned_images)

let test_freeze_bytes_pinned () =
  List.iter
    (fun (name, _, b, _, image) ->
      Alcotest.(check string) name image (Digest.to_hex (Digest.bytes b)))
    (Lazy.force pinned_images)

(* ------------------------------------------------------------------ *)
(* Serialization. *)

let tiny_snapshot =
  lazy (Bgp.freeze (bgp_of (Gen.generate Topogen.Scenario.tiny)))

let err_label = function
  | Ok _ -> "ok"
  | Error e -> S.error_label e

let test_roundtrip () =
  let snap = Lazy.force tiny_snapshot in
  let b = S.to_bytes snap in
  match S.of_bytes b with
  | Error e -> Alcotest.failf "round-trip rejected: %s" (S.error_label e)
  | Ok snap' ->
    Alcotest.(check int) "prefix_count" (S.prefix_count snap) (S.prefix_count snap');
    Alcotest.(check int) "asn_count" (S.asn_count snap) (S.asn_count snap');
    Alcotest.(check int) "arena_length" (S.arena_length snap) (S.arena_length snap');
    Alcotest.(check bool) "prefixes" true (Bgp.prefixes snap' = Bgp.prefixes snap);
    Alcotest.(check (result unit string)) "Snapshot.equal" (Ok ()) (S.equal snap snap');
    (* Every packed word survives: decode both sides cell by cell. *)
    let np = S.prefix_count snap and na = S.asn_count snap in
    for pslot = 0 to np - 1 do
      for aslot = 0 to na - 1 do
        if S.word snap' ~pslot ~aslot <> S.word snap ~pslot ~aslot then
          Alcotest.failf "word (%d, %d) drifted through the codec" pslot aslot
      done
    done;
    (* The decoded snapshot answers queries like the original. *)
    List.iter
      (fun p ->
        List.iter
          (fun asn ->
            Alcotest.(check bool)
              (Printf.sprintf "route AS%d %s" asn (Prefix.to_string p))
              true
              (proj (Bgp.route snap' asn p) = proj (Bgp.route snap asn p)))
          [ 64500; 64501; 65000 ])
      (Bgp.prefixes snap);
    (* Re-encoding is byte-identical: the codec is canonical. *)
    Alcotest.(check bool) "re-encode is byte-identical" true
      (Bytes.equal (S.to_bytes snap') b)

let expect_error name b expected =
  let got = err_label (S.of_bytes b) in
  Alcotest.(check string) name expected got

let test_corrupted_byte_rejected () =
  let snap = Lazy.force tiny_snapshot in
  let b = S.to_bytes snap in
  (* Flip one payload byte at several depths: the packed words, the
     arena, and the trailer. Every flip must fail the digest, never
     decode to a different snapshot. *)
  List.iter
    (fun frac ->
      let b' = Bytes.copy b in
      let pos = 32 + (frac * (Bytes.length b - 33) / 100) in
      Bytes.set b' pos (Char.chr (Char.code (Bytes.get b' pos) lxor 0x40));
      expect_error (Printf.sprintf "flip at %d%%" frac) b' "corrupt")
    [ 0; 25; 50; 75; 100 ]

let test_truncation_rejected () =
  let snap = Lazy.force tiny_snapshot in
  let b = S.to_bytes snap in
  expect_error "empty" Bytes.empty "truncated";
  expect_error "header only" (Bytes.sub b 0 32) "truncated";
  expect_error "half payload" (Bytes.sub b 0 (Bytes.length b / 2)) "truncated";
  expect_error "one byte short" (Bytes.sub b 0 (Bytes.length b - 1)) "truncated"

let test_bad_magic_and_version () =
  let snap = Lazy.force tiny_snapshot in
  let b = S.to_bytes snap in
  let wrong_magic = Bytes.copy b in
  Bytes.set wrong_magic 0 'X';
  Alcotest.(check bool) "wrong magic" true (S.of_bytes wrong_magic = Error S.Bad_magic);
  let wrong_version = Bytes.copy b in
  Bytes.set_int32_be wrong_version 4 99l;
  Alcotest.(check bool) "future version" true
    (S.of_bytes wrong_version = Error (S.Bad_version 99))

(* A digest-valid image whose counts claim 2^30 x 2^30 words: [8 * (nw +
   na)] wraps to 0 in 63-bit ints, so a length check that multiplies
   passes and the decoder then asks for 2^60 words. The counts must be
   bounded by the payload length instead. *)
let test_crafted_counts_rejected () =
  let b = Store.Envelope.create 32 in
  let count i v = Bytes.set_int64_be b (Store.Envelope.header_len + (8 * i)) v in
  count 0 (Int64.shift_left 1L 30);
  count 1 (Int64.shift_left 1L 30);
  count 2 (Int64.shift_left 1L 60);
  count 3 0L;
  Store.Envelope.seal { Store.Envelope.magic = "BDSN"; version = S.codec_version } b;
  Alcotest.(check int) "64-byte image" 64 (Bytes.length b);
  Alcotest.(check bool) "crafted counts are Corrupt" true (S.of_bytes b = Error S.Corrupt)

(* A digest-valid image whose trailer claims 2^40 originated entries:
   the count is bounded by the bytes left before the decoder reads or
   allocates an entry. *)
let test_crafted_trailer_count_rejected () =
  let snap = Lazy.force tiny_snapshot in
  let b = S.to_bytes snap in
  let nw = S.row_count snap * S.asn_count snap in
  (* Past the counts, words, arena, slot table and row map. *)
  let off =
    Store.Envelope.header_len + 32
    + (8 * (nw + S.arena_length snap + S.asn_count snap + S.prefix_count snap))
  in
  Alcotest.(check int64) "originated count found"
    (Int64.of_int (List.length (Topogen.Gen.originated (Gen.generate Topogen.Scenario.tiny))))
    (Bytes.get_int64_be b off);
  Bytes.set_int64_be b off (Int64.shift_left 1L 40);
  Store.Envelope.seal { Store.Envelope.magic = "BDSN"; version = S.codec_version } b;
  Alcotest.(check bool) "2^40 entries are Corrupt" true (S.of_bytes b = Error S.Corrupt)

let suite =
  [ Qc.to_alcotest prop_packed_equals_boxed;
    Qc.to_alcotest prop_kernel_random_graphs;
    Alcotest.test_case "fig14 world = reference model" `Quick
      test_fig14_world_matches_reference;
    Alcotest.test_case "freeze words+arena pinned (large_access, moas_storm)" `Quick
      test_freeze_arenas_pinned;
    Alcotest.test_case "freeze bytes pinned (large_access, moas_storm)" `Quick
      test_freeze_bytes_pinned;
    Alcotest.test_case "to_bytes/of_bytes round-trip" `Quick test_roundtrip;
    Alcotest.test_case "corrupted byte rejected" `Quick test_corrupted_byte_rejected;
    Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
    Alcotest.test_case "crafted counts rejected" `Quick test_crafted_counts_rejected;
    Alcotest.test_case "crafted trailer count rejected" `Quick
      test_crafted_trailer_count_rejected;
    Alcotest.test_case "bad magic / bad version rejected" `Quick
      test_bad_magic_and_version ]
