(* The domain pool: submission-order results, exception propagation,
   reuse across batches, worker-local init — under both a single worker
   domain and several — plus the end-to-end determinism guarantee:
   multi-VP inference output is byte-identical whatever the pool size. *)

open Netcore
module Gen = Topogen.Gen

(* Every structural test runs at both pool sizes: the 1-domain pool is
   the degenerate schedule (one worker drains everything), the 4-domain
   pool exercises contention on the shared cursor. *)
let sizes = [ 1; 4 ]

let test_map_ordering () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let items = List.init 100 Fun.id in
          let got = Pool.map pool (fun x -> x * x) items in
          Alcotest.(check (list int))
            (Printf.sprintf "squares in order (%d domains)" domains)
            (List.map (fun x -> x * x) items)
            got))
    sizes

let test_empty_and_single () =
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check (list int)) "empty batch" [] (Pool.map pool succ []);
      Alcotest.(check (list int)) "one item" [ 42 ] (Pool.map pool succ [ 41 ]))

let test_exception_propagation () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          (match
             Pool.map pool
               (fun x -> if x = 42 then failwith "boom-42" else x)
               (List.init 100 Fun.id)
           with
          | _ -> Alcotest.fail "expected the batch to raise"
          | exception Failure m ->
            Alcotest.(check string)
              (Printf.sprintf "first failure in order (%d domains)" domains)
              "boom-42" m);
          (* The pool survives a failed batch. *)
          Alcotest.(check (list int)) "usable after failure" [ 2; 4 ]
            (Pool.map pool (fun x -> 2 * x) [ 1; 2 ])))
    sizes

let test_reuse_across_batches () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          for batch = 1 to 5 do
            let items = List.init (10 * batch) (fun i -> i + batch) in
            Alcotest.(check (list int))
              (Printf.sprintf "batch %d (%d domains)" batch domains)
              (List.map succ items)
              (Pool.map pool succ items)
          done))
    sizes

let test_map_init_worker_state () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let inits = Atomic.make 0 in
          let got =
            Pool.map_init pool
              ~init:(fun () ->
                Atomic.incr inits;
                (* Worker-local accumulator: mutation without locks must
                   be safe because each worker owns its own ref. *)
                ref 0)
              (fun acc x ->
                acc := !acc + x;
                x + 1)
              (List.init 50 Fun.id)
          in
          Alcotest.(check (list int)) "results use state" (List.init 50 succ) got;
          let n = Atomic.get inits in
          Alcotest.(check bool)
            (Printf.sprintf "init ran 1..%d times, got %d" domains n)
            true
            (n >= 1 && n <= domains)))
    sizes

let test_shutdown_rejects_use () =
  let pool = Pool.create ~domains:2 () in
  Alcotest.(check int) "size" 2 (Pool.size pool);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  match Pool.map pool succ [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

(* The tentpole guarantee: execute_all produces byte-identical per-VP
   link output with no pool, a 1-domain pool and a multi-domain pool. *)
let test_execute_all_determinism () =
  let w = Gen.generate Topogen.Scenario.tiny in
  let _shared, _fwd, _engine, inputs = Bdrmap.Pipeline.setup w in
  let lines (r : Bdrmap.Pipeline.run) =
    Bdrmap.Output.links_to_lines r.Bdrmap.Pipeline.graph r.Bdrmap.Pipeline.inference
  in
  let serial =
    List.map lines (Bdrmap.Pipeline.execute_all w inputs ~vps:w.Gen.vps)
  in
  Alcotest.(check int) "every tiny VP ran" (List.length w.Gen.vps)
    (List.length serial);
  Alcotest.(check bool) "tiny world has several VPs" true
    (List.length w.Gen.vps > 1);
  List.iter
    (fun domains ->
      let pooled =
        Pool.with_pool ~domains (fun pool ->
            List.map lines
              (Bdrmap.Pipeline.execute_all ~pool w inputs ~vps:w.Gen.vps))
      in
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check (list string))
            (Printf.sprintf "vp %d identical at %d domains" i domains)
            a b)
        (List.combine serial pooled))
    sizes

let suite =
  [ Alcotest.test_case "map ordering" `Quick test_map_ordering;
    Alcotest.test_case "empty and single" `Quick test_empty_and_single;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "reuse across batches" `Quick test_reuse_across_batches;
    Alcotest.test_case "map_init worker state" `Quick test_map_init_worker_state;
    Alcotest.test_case "shutdown" `Quick test_shutdown_rejects_use;
    Alcotest.test_case "execute_all determinism" `Slow test_execute_all_determinism ]
