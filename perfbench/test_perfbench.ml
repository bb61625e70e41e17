(* Tests of the benchmark's own arithmetic and checkers. *)

module Q = Perfbench.Quant
module Sp = Perfbench.Spans
module Ck = Perfbench.Checks
module Gen = Topogen.Gen

let floats n = Array.init n (fun i -> float_of_int (n - i))

let refused = function Ok _ -> false | Error (Q.Too_few _) -> true

let test_support_rule () =
  Alcotest.(check bool) "lower decile of 99" true (refused (Q.quantile 0.1 (floats 99)));
  Alcotest.(check bool) "lower decile of 100" false (refused (Q.quantile 0.1 (floats 100)));
  Alcotest.(check bool) "p99 of 999" true (refused (Q.p99 (floats 999)));
  Alcotest.(check bool) "p99 of 1000" false (refused (Q.p99 (floats 1000)));
  Alcotest.(check bool) "median of 19" true (refused (Q.median (floats 19)));
  Alcotest.(check bool) "median of 20" false (refused (Q.median (floats 20)))

let test_quantile_values () =
  let v = function Ok x -> x | Error e -> Alcotest.fail (Q.error_label e) in
  (* 1..101: type-7 interpolation lands on order statistics. *)
  let xs = Array.init 101 (fun i -> float_of_int (101 - i)) in
  Alcotest.(check (float 1e-9)) "median" 51.0 (v (Q.median xs));
  Alcotest.(check (float 1e-9)) "lower decile" 11.0 (v (Q.quantile 0.1 xs));
  Alcotest.(check (float 1e-9)) "p90" 91.0 (v (Q.p90 xs));
  Alcotest.(check (float 1e-9)) "interpolated" 2.5 (Q.middle [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "minimum" 1.0 (Q.minimum xs)

(* root [0,100]: input [10,40] holding probesim [20,30]; graph
   [50,90]. Self times: root 30, input 20, probesim 10, graph 40. *)
let test_self_times () =
  let t = Sp.create () in
  let id = Sp.intern t in
  let root = Sp.add t ~name:(id "vp") ~start:0 ~stop:100 ~parent:(-1) in
  let input = Sp.add t ~name:(id "input") ~start:10 ~stop:40 ~parent:root in
  ignore (Sp.add t ~name:(id "probesim") ~start:20 ~stop:30 ~parent:input);
  ignore (Sp.add t ~name:(id "graph") ~start:50 ~stop:90 ~parent:root);
  Alcotest.(check (list (pair string int)))
    "self by name"
    [ ("vp", 30); ("input", 20); ("probesim", 10); ("graph", 40) ]
    (Sp.self_by_name t);
  Alcotest.(check int) "unattributed is the root's self time" 30
    (Sp.unattributed t ~root:"vp" ~total_ns:100);
  (* Without a root span the op's total is the reference. *)
  let u = Sp.create () in
  ignore (Sp.add u ~name:(Sp.intern u "refreeze.bgp") ~start:5 ~stop:25 ~parent:(-1));
  ignore (Sp.add u ~name:(Sp.intern u "refreeze.fwd") ~start:30 ~stop:90 ~parent:(-1));
  Alcotest.(check int) "unattributed without a root" 20
    (Sp.unattributed u ~root:"refreeze" ~total_ns:100)

(* Children that overlap, or stick out of their parent, are clipped and
   merged before they are subtracted. *)
let test_overlapping_children () =
  let t = Sp.create () in
  let id = Sp.intern t in
  let p = Sp.add t ~name:(id "restart") ~start:0 ~stop:100 ~parent:(-1) in
  ignore (Sp.add t ~name:(id "a") ~start:10 ~stop:40 ~parent:p);
  ignore (Sp.add t ~name:(id "b") ~start:30 ~stop:60 ~parent:p);
  ignore (Sp.add t ~name:(id "c") ~start:90 ~stop:120 ~parent:p);
  Alcotest.(check int) "parent self" 40 (List.assoc "restart" (Sp.self_by_name t))

(* A small served map: the tiny world swept from every VP. *)
let tiny =
  lazy
    (let w = Gen.generate Topogen.Scenario.tiny in
     let shared = Bdrmap.Pipeline.freeze_routing w in
     let bgp = Routing.Bgp.of_snapshot shared.Bdrmap.Pipeline.snapshot in
     let inputs = Bdrmap.Pipeline.inputs_of_world w bgp in
     let runs = Bdrmap.Pipeline.execute_all ~shared w inputs ~vps:w.Gen.vps in
     let merged =
       Bdrmap.Aggregate.merge_runs
         (List.map2
            (fun (vp : Gen.vp) (r : Bdrmap.Pipeline.run) -> (vp.Gen.vp_name, r.graph, r.inference))
            w.Gen.vps runs)
     in
     let mapfile = Bdrmap.Mapfile.make ~host_asns:w.Gen.siblings ~bgp merged in
     (w, shared, runs, Serve.Qmap.build ~snapshot:shared.snapshot mapfile))

let test_owner_check () =
  let _, _, _, qmap = Lazy.force tiny in
  let addrs = Array.map Netcore.Ipv4.to_int (Serve.Qmap.sample_addrs qmap) in
  let n = Array.length addrs in
  let out = Array.map (fun a -> Serve.Qmap.owner qmap (Netcore.Ipv4.of_int a)) addrs in
  Alcotest.(check int) "served answers match" 0 (Ck.owner_mismatches qmap ~addrs ~out ~n);
  out.(n / 2) <- out.(n / 2) + 1;
  Alcotest.(check int) "a corrupted answer is flagged" 1 (Ck.owner_mismatches qmap ~addrs ~out ~n)

let test_routing_check () =
  let w, shared, _, _ = Lazy.force tiny in
  let scratch = (shared.Bdrmap.Pipeline.snapshot, shared.plan) in
  Alcotest.(check bool) "a state equals itself" true
    (Result.is_ok (Ck.routing_equal ~scratch ~patched:scratch));
  (* Perturb: the same world after one more customer joins. *)
  let w' =
    match Topogen.Evolve.force ~seed:1 Topogen.Evolve.New_customer w with
    | Some (w', _) -> w'
    | None -> Alcotest.fail "tiny world has no site for a new customer"
  in
  let evolved = Bdrmap.Pipeline.freeze_routing w' in
  Alcotest.(check bool) "a perturbed snapshot is flagged" true
    (Result.is_error
       (Ck.routing_equal ~scratch:(evolved.snapshot, evolved.plan) ~patched:scratch))

let test_run_check () =
  let _, _, runs, _ = Lazy.force tiny in
  let r = List.hd runs in
  Alcotest.(check bool) "a run equals itself" true (Result.is_ok (Ck.same_run ~expected:r r));
  Alcotest.(check bool) "a changed probe count is flagged" true
    (Result.is_error (Ck.same_run ~expected:r { r with probes = r.probes + 1 }));
  Alcotest.(check bool) "changed bytes are flagged" true
    (Result.is_error
       (Ck.same_bytes ~what:"map" ~expected:(Bytes.of_string "ab") (Bytes.of_string "ac")))

let () =
  Alcotest.run "perfbench"
    [ ( "quant",
        [ Alcotest.test_case "support rule" `Quick test_support_rule;
          Alcotest.test_case "values" `Quick test_quantile_values ] );
      ( "spans",
        [ Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "overlapping children" `Quick test_overlapping_children ] );
      ( "checks",
        [ Alcotest.test_case "owner answers" `Quick test_owner_check;
          Alcotest.test_case "routing state" `Quick test_routing_check;
          Alcotest.test_case "one-VP run" `Quick test_run_check ] ) ]
