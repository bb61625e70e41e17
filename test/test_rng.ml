open Netcore

let test_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000000) (Rng.int b 1000000)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000000) in
  Alcotest.(check bool) "different seeds diverge" true (xs <> ys)

let test_bounds () =
  let t = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int t 7 in
    Alcotest.(check bool) "int in bounds" true (v >= 0 && v < 7);
    let f = Rng.float t in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_uniformity () =
  let t = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 20000 in
  for _ = 1 to n do
    let v = Rng.int t 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (c > (n / 10) - 400 && c < (n / 10) + 400))
    buckets

let test_shuffle_permutation () =
  let t = Rng.create 5 in
  let l = List.init 50 Fun.id in
  let s = Rng.shuffle t l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

let test_sample () =
  let t = Rng.create 5 in
  let l = List.init 50 Fun.id in
  let s = Rng.sample t 10 l in
  Alcotest.(check int) "sample size" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s));
  Alcotest.(check int) "oversample returns all" 50 (List.length (Rng.sample t 100 l))

let test_weighted () =
  let t = Rng.create 9 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10000 do
    let v = Rng.weighted t [ (0.9, "a"); (0.1, "b") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  Alcotest.(check bool) "weighted ratio" true (a > 8600 && a < 9400)

let test_bool_p () =
  let t = Rng.create 13 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Rng.bool t ~p:0.25 then incr hits
  done;
  Alcotest.(check bool) "p=0.25" true (!hits > 2200 && !hits < 2800)

(* The first 64 draws of [int] and [float] for three seeds, pinned as digests of their printed
   values plus the first three in the clear. Every simulated world is a
   function of these streams. *)
let pinned =
  [ (0, "int", "219926de9b50d508874530371a410842", "164651883;548588925;867886419");
    ( 0,
      "float",
      "d8d2169f371f1664a05b5b059565cb0f",
      "0x1.c4415072f63b9p-1;0x1.b9e279aa86e58p-2;0x1.b1174620025p-6" );
    (42, "int", "b1afeb5b9bac301a0d5f56bbc9006e10", "540076570;828047797;118319285");
    ( 42,
      "float",
      "b5b081d5b95ec0293faae3d1055c52f7",
      "0x1.31367e26140c7p-1;0x1.486da5f92b86cp-3;0x1.54c85f31d00d8p-3" );
    (20161114, "int", "bbe272b27cad4349ea73bf52a9dc2328", "974276392;11097503;546305503");
    ( 20161114,
      "float",
      "a9c33050ad2ed493f4067461ad915862",
      "0x1.03b990ca99d8p-4;0x1.25cb0db6ce10ap-2;0x1.c59b8c6c12c01p-1" ) ]

let test_pinned_streams () =
  List.iter
    (fun (seed, kind, digest, first3) ->
      let r = Rng.create seed in
      let draws =
        List.init 64 (fun _ ->
            match kind with
            | "int" -> string_of_int (Rng.int r 1_000_000_000)
            | _ -> Printf.sprintf "%h" (Rng.float r))
      in
      let what = Printf.sprintf "seed %d %s" seed kind in
      Alcotest.(check string) (what ^ ", first three") first3
        (String.concat ";" (List.filteri (fun i _ -> i < 3) draws));
      Alcotest.(check string) (what ^ ", 64 draws") digest
        (Digest.to_hex (Digest.string (String.concat "," draws))))
    pinned

(* A draw keeps the state unboxed: [n] draws allocate exactly what an
   empty loop does. *)
let test_int_allocates_nothing () =
  let r = Rng.create 17 in
  let words n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Rng.int r 1000))
    done;
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.0)) "minor words for 100k draws" (words 0) (words 100_000)

let suite =
  [ Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "uniformity" `Quick test_uniformity;
    Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "sample" `Quick test_sample;
    Alcotest.test_case "weighted pick" `Quick test_weighted;
    Alcotest.test_case "bool with probability" `Quick test_bool_p;
    Alcotest.test_case "pinned streams" `Quick test_pinned_streams;
    Alcotest.test_case "int allocates nothing" `Quick test_int_allocates_nothing ]
