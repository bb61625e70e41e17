(* Heap (the reference models' priority queue): unit coverage plus
   properties pinning it against the obvious reference (List.sort),
   including the lazy-deletion pattern the Dijkstra loops rely on. *)

let test_empty () =
  let h = Heap.create Int.compare in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.(check (option int)) "pop" None (Heap.pop_opt h);
  Alcotest.(check (option int)) "peek" None (Heap.peek_opt h)

let test_push_pop_order () =
  let h = Heap.of_list Int.compare [ 5; 1; 4; 1; 3; 9; 2 ] in
  Alcotest.(check int) "length" 7 (Heap.length h);
  Alcotest.(check (option int)) "peek is min" (Some 1) (Heap.peek_opt h);
  Alcotest.(check (list int)) "drains sorted" [ 1; 1; 2; 3; 4; 5; 9 ]
    (Heap.to_sorted_list h);
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_clear () =
  let h = Heap.of_list Int.compare [ 3; 1; 2 ] in
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Heap.push h 7;
  Alcotest.(check (option int)) "usable after clear" (Some 7) (Heap.pop_opt h)

let test_interleaved () =
  let h = Heap.create Int.compare in
  Heap.push h 4;
  Heap.push h 2;
  Alcotest.(check (option int)) "min of {4,2}" (Some 2) (Heap.pop_opt h);
  Heap.push h 1;
  Heap.push h 3;
  Alcotest.(check (option int)) "min of {4,1,3}" (Some 1) (Heap.pop_opt h);
  Alcotest.(check (option int)) "then 3" (Some 3) (Heap.pop_opt h);
  Alcotest.(check (option int)) "then 4" (Some 4) (Heap.pop_opt h);
  Alcotest.(check (option int)) "empty" None (Heap.pop_opt h)

let arb_ints = QCheck.(list_of_size (Gen.int_range 0 500) (int_range (-1000) 1000))

let prop_heapsort =
  QCheck.Test.make ~name:"heap drains like List.sort" ~count:300 arb_ints (fun l ->
      Heap.to_sorted_list (Heap.of_list Int.compare l) = List.sort Int.compare l)

let prop_total_order_ties =
  (* With a total comparison on (key, payload), the drain order is fully
     deterministic even among equal keys — what Bgp/Forwarding rely on
     for reproducible tie-breaking. *)
  QCheck.Test.make ~name:"total cmp gives deterministic drain" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 200) (pair (int_bound 5) (int_bound 1000)))
    (fun l ->
      let cmp (k1, p1) (k2, p2) =
        match Int.compare k1 k2 with 0 -> Int.compare p1 p2 | c -> c
      in
      Heap.to_sorted_list (Heap.of_list cmp l) = List.sort cmp l)

(* The Dijkstra usage: relax by pushing duplicates, skip stale pops.
   The resulting distance map must match a reference computed from the
   final (minimal) value per key. *)
let prop_lazy_deletion =
  QCheck.Test.make ~name:"lazy deletion yields per-key minima" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 300) (pair (int_bound 20) (int_bound 100)))
    (fun updates ->
      let cmp (d1, k1) (d2, k2) =
        match Int.compare d1 d2 with 0 -> Int.compare k1 k2 | c -> c
      in
      let h = Heap.create cmp in
      let best = Hashtbl.create 16 in
      (* "decrease-key": record the improvement and push a duplicate. *)
      List.iter
        (fun (k, d) ->
          match Hashtbl.find_opt best k with
          | Some d' when d' <= d -> ()
          | _ ->
            Hashtbl.replace best k d;
            Heap.push h (d, k))
        updates;
      (* Drain: the first non-stale pop per key is its minimum, and pops
         arrive in nondecreasing distance order. *)
      let seen = Hashtbl.create 16 in
      let ok = ref true in
      let last = ref min_int in
      let rec drain () =
        match Heap.pop_opt h with
        | None -> ()
        | Some (d, k) ->
          if d < !last then ok := false;
          last := d;
          if Hashtbl.find_opt best k = Some d && not (Hashtbl.mem seen k) then
            Hashtbl.replace seen k d;
          drain ()
      in
      drain ();
      !ok
      && Hashtbl.length seen = Hashtbl.length best
      && Hashtbl.fold (fun k d acc -> acc && Hashtbl.find_opt seen k = Some d) best true)

let suite =
  [ Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "push/pop order" `Quick test_push_pop_order;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    Qc.to_alcotest prop_heapsort;
    Qc.to_alcotest prop_total_order_ties;
    Qc.to_alcotest prop_lazy_deletion ]
