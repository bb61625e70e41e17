open Netcore
module Ally = Aliasres.Ally
module Mercator = Aliasres.Mercator
module Prefixscan = Aliasres.Prefixscan
module Ag = Aliasres.Alias_graph

let ip = Ipv4.of_string_exn

(* Synthetic samplers ------------------------------------------------- *)

let shared_counter_sampler start =
  let c = ref start in
  fun _addr ->
    incr c;
    Some (!c land 0xFFFF)

let two_counter_sampler () =
  let c1 = ref 100 and c2 = ref 40000 in
  fun addr ->
    if Ipv4.to_int addr land 1 = 0 then begin
      c1 := !c1 + 3;
      Some (!c1 land 0xFFFF)
    end
    else begin
      c2 := !c2 + 3;
      Some (!c2 land 0xFFFF)
    end

let test_monotonic () =
  Alcotest.(check bool) "increasing" true (Ally.monotonic [ 1; 5; 9; 100 ]);
  Alcotest.(check bool) "wraps once" true (Ally.monotonic [ 65530; 65534; 3; 9 ]);
  Alcotest.(check bool) "flat fails" false (Ally.monotonic [ 7; 7; 8 ]);
  Alcotest.(check bool) "decrease fails" false (Ally.monotonic [ 9; 5 ]);
  Alcotest.(check bool) "big jump fails" false (Ally.monotonic [ 1; 40000 ]);
  Alcotest.(check bool) "empty ok" true (Ally.monotonic []);
  Alcotest.(check bool) "double wrap fails" false
    (Ally.monotonic [ 0; 30000; 60000; 25000; 55000; 20000 ])

let test_ally_same_router () =
  let s = shared_counter_sampler 1000 in
  Alcotest.(check bool) "aliases" true
    (Ally.trial s (ip "10.0.0.1") (ip "10.0.0.2") ~samples:5 = Ally.Aliases)

let test_ally_different_routers () =
  let s = two_counter_sampler () in
  Alcotest.(check bool) "not aliases" true
    (Ally.trial s (ip "10.0.0.2") (ip "10.0.0.3") ~samples:5 = Ally.Not_aliases)

let test_ally_unresponsive () =
  let none _ = None in
  Alcotest.(check bool) "unresponsive" true
    (Ally.trial none (ip "10.0.0.1") (ip "10.0.0.2") ~samples:3 = Ally.Unresponsive);
  let zero _ = Some 0 in
  Alcotest.(check bool) "constant ids unusable" true
    (Ally.trial zero (ip "10.0.0.1") (ip "10.0.0.2") ~samples:3 = Ally.Unresponsive)

let test_ally_random_ids_unusable () =
  let r = Rng.create 5 in
  let s _ = Some (Rng.int r 65536) in
  let verdict = Ally.trial s (ip "10.0.0.1") (ip "10.0.0.2") ~samples:6 in
  Alcotest.(check bool) "random ids never infer aliases" true (verdict <> Ally.Aliases)

let test_ally_repeat_rejects () =
  (* First trial happens to look like one counter, later trial reveals
     two counters: repetition must reject (§5.3 "Limit false aliases"). *)
  let phase = ref 0 in
  let c1 = ref 0 and c2 = ref 3 in
  let s addr =
    if !phase = 0 then begin
      (* Counters interleaved tightly: looks shared. *)
      if Ipv4.to_int addr land 1 = 0 then begin
        c1 := !c1 + 4;
        Some (!c1 land 0xFFFF)
      end
      else begin
        c2 := !c2 + 4;
        Some (!c2 land 0xFFFF)
      end
    end
    else begin
      (* Now the two counters drift far apart: per-address samples stay
         monotonic but the merged sequence cannot be. *)
      if Ipv4.to_int addr land 1 = 0 then begin
        c1 := !c1 + 4;
        Some (!c1 land 0xFFFF)
      end
      else begin
        if !c2 < 50000 then c2 := 50000;
        c2 := !c2 + 4;
        Some (!c2 land 0xFFFF)
      end
    end
  in
  (* Make the deceptive phase actually monotonic: c1 and c2 offset. *)
  c1 := 0;
  c2 := 2;
  let wait () = incr phase in
  let verdict =
    Ally.test s ~wait (ip "10.0.0.2") (ip "10.0.0.3") ~trials:3 ~samples:3
  in
  Alcotest.(check bool) "later trial rejects" true (verdict = Ally.Not_aliases)

let test_mercator () =
  let canonical = ip "10.9.9.9" in
  let p_common _ = Some canonical in
  Alcotest.(check bool) "common source" true
    (Mercator.test p_common (ip "10.0.0.1") (ip "10.0.0.2") = Mercator.Aliases);
  let p_echoes a = Some a in
  Alcotest.(check bool) "probed-addr source useless" true
    (Mercator.test p_echoes (ip "10.0.0.1") (ip "10.0.0.2") = Mercator.Unresponsive);
  let p_two a = if Ipv4.to_int a land 1 = 0 then Some (ip "10.1.1.1") else Some (ip "10.2.2.2") in
  Alcotest.(check bool) "distinct canonicals" true
    (Mercator.test p_two (ip "10.0.0.2") (ip "10.0.0.3") = Mercator.Not_aliases);
  let p_none _ = None in
  Alcotest.(check bool) "silent" true
    (Mercator.test p_none (ip "10.0.0.1") (ip "10.0.0.2") = Mercator.Unresponsive)

let test_prefixscan_31 () =
  (* hop 10.0.0.9 on a /31 with mate .8; oracle confirms mate aliases prev. *)
  let oracle m p =
    if Ipv4.equal m (ip "10.0.0.8") && Ipv4.equal p (ip "192.0.2.1") then `Aliases
    else `Not_aliases
  in
  match Prefixscan.scan oracle ~prev:(ip "192.0.2.1") ~hop:(ip "10.0.0.9") with
  | Some r ->
    Alcotest.(check int) "len" 31 r.Prefixscan.subnet_len;
    Alcotest.(check string) "mate" "10.0.0.8" (Ipv4.to_string r.Prefixscan.mate)
  | None -> Alcotest.fail "expected /31 inference"

let test_prefixscan_30 () =
  (* hop 10.0.0.6 (.5/.6 usable in .4/30): /31 mate is .7, /30 mate .5. *)
  let oracle m p =
    if Ipv4.equal m (ip "10.0.0.5") && Ipv4.equal p (ip "192.0.2.1") then `Aliases
    else `Not_aliases
  in
  match Prefixscan.scan oracle ~prev:(ip "192.0.2.1") ~hop:(ip "10.0.0.6") with
  | Some r -> Alcotest.(check int) "len 30" 30 r.Prefixscan.subnet_len
  | None -> Alcotest.fail "expected /30 inference"

let test_prefixscan_rejects () =
  let oracle _ _ = `Not_aliases in
  Alcotest.(check bool) "no inference" true
    (Prefixscan.scan oracle ~prev:(ip "192.0.2.1") ~hop:(ip "10.0.0.6") = None)

let test_prefixscan_direct_mate () =
  (* prev is itself the /31 mate of hop: inbound confirmed trivially. *)
  match Prefixscan.scan (fun _ _ -> `Unknown) ~prev:(ip "10.0.0.8") ~hop:(ip "10.0.0.9") with
  | Some r -> Alcotest.(check string) "mate is prev" "10.0.0.8" (Ipv4.to_string r.Prefixscan.mate)
  | None -> Alcotest.fail "expected direct mate"

let freeze g = fst (Ag.freeze g)

let test_graph_closure () =
  let g = Ag.Uf.create () in
  Alias_ref.add_alias g (ip "10.0.0.1") (ip "10.0.0.2");
  Alias_ref.add_alias g (ip "10.0.0.2") (ip "10.0.0.3");
  Alcotest.(check bool) "transitive" true (Alias_ref.same_router g (ip "10.0.0.1") (ip "10.0.0.3"));
  Alcotest.(check (list (list string))) "one group of three"
    [ [ "10.0.0.1"; "10.0.0.2"; "10.0.0.3" ] ]
    (List.map (List.map Ipv4.to_string) (Ag.groups (freeze g)))

let test_graph_negative_veto () =
  let g = Ag.Uf.create () in
  Alias_ref.add_not_alias g (ip "10.0.0.1") (ip "10.0.0.3");
  Alias_ref.add_alias g (ip "10.0.0.1") (ip "10.0.0.2");
  (* Positive evidence 2~3 would transitively merge 1 and 3 which is
     vetoed; the union must be refused. *)
  Alias_ref.add_alias g (ip "10.0.0.2") (ip "10.0.0.3");
  Alcotest.(check bool) "veto blocks merge" false
    (Alias_ref.same_router g (ip "10.0.0.1") (ip "10.0.0.3"));
  Alcotest.(check bool) "first merge survived" true
    (Alias_ref.same_router g (ip "10.0.0.1") (ip "10.0.0.2"));
  Alcotest.(check bool) "the frozen table keeps both" true
    (let t = freeze g in
     Alias_ref.table_same t (ip "10.0.0.1") (ip "10.0.0.2")
     && not (Alias_ref.table_same t (ip "10.0.0.1") (ip "10.0.0.3")))

let test_graph_groups () =
  let g = Ag.Uf.create () in
  Alias_ref.add_alias g (ip "10.0.0.1") (ip "10.0.0.2");
  Alias_ref.add_alias g (ip "10.0.1.1") (ip "10.0.1.2");
  Alias_ref.add_not_alias g (ip "10.0.2.1") (ip "10.0.0.1");
  let groups = Ag.groups (freeze g) in
  Alcotest.(check int) "three groups" 3 (List.length groups);
  Alcotest.(check bool) "sizes" true
    (List.sort compare (List.map List.length groups) = [ 1; 2; 2 ]);
  (* A hop or mate address the evidence never named is a singleton. *)
  let hops = List.map (Ag.Uf.intern g ~observed:true) [ ip "10.0.3.1"; ip "10.0.0.2" ] in
  let mate = Ag.Uf.intern g ~observed:false (ip "10.0.3.9") in
  let t, pos = Ag.freeze g in
  Alcotest.(check int) "five groups" 5 (List.length (Ag.groups t));
  Alcotest.(check (list string)) "registry ids name their table ids"
    [ "10.0.3.1"; "10.0.0.2"; "10.0.3.9" ]
    (List.map (fun i -> Ipv4.to_string (Ag.addr t pos.(i))) (hops @ [ mate ]));
  Alcotest.(check (list (pair string bool))) "ascending, with observed bits"
    [ ("10.0.0.1", false); ("10.0.0.2", true); ("10.0.1.1", false); ("10.0.1.2", false);
      ("10.0.2.1", false); ("10.0.3.1", true); ("10.0.3.9", false) ]
    (List.init (Ag.length t) (fun i -> (Ipv4.to_string (Ag.addr t i), Ag.observed t i)));
  Alcotest.(check bool) "an absent address" true (Alias_ref.table_id t (ip "10.0.4.1") = None)

(* [Ally.trial] and [Ally.test] against the list-based reference in
   [Alias_ref], on sampler streams drawn from the seed: one shared
   counter, two counters, or random IDs, each with an optional silent
   reply at a drawn call. Both must reach the same verdict through the
   same calls: each sample names its address, each wait is logged in
   between. *)
let prop_ally_matches_reference =
  QCheck.Test.make ~name:"ally trial and test = list reference, call for call" ~count:500
    QCheck.(make ~print:Print.int ~shrink:Shrink.int Gen.(int_bound 1_000_000))
    (fun seed ->
      let r = Rng.create seed in
      let mode = Rng.int r 3 and samples = Rng.int r 6 and trials = 1 + Rng.int r 4 in
      let silent_at = if Rng.int r 2 = 0 then Rng.int r ((2 * samples * trials) + 1) else -1 in
      let step = 1 + Rng.int r 3000 and start = Rng.int r 65536 and draws = Rng.int r 1_000_000 in
      let a = ip "10.0.0.1" and b = ip "10.0.0.2" in
      (* A fresh stream per run: both runs see the same replies only if
         they make the same calls. *)
      let run f =
        let log = ref [] and calls = ref 0 and shared = ref start in
        let own = [| start; (start + 20000) land 0xFFFF |] and rng = Rng.create draws in
        let sampler x =
          log := Ipv4.to_string x :: !log;
          incr calls;
          if !calls - 1 = silent_at then None
          else
            match mode with
            | 0 ->
              shared := (!shared + step) land 0xFFFF;
              Some !shared
            | 1 ->
              let k = if Ipv4.equal x a then 0 else 1 in
              own.(k) <- (own.(k) + step) land 0xFFFF;
              Some own.(k)
            | _ -> Some (Rng.int rng 65536)
        in
        let wait () = log := "wait" :: !log in
        let v = f sampler ~wait in
        (v, List.rev !log)
      in
      let same what x y =
        if x <> y then QCheck.Test.fail_reportf "%s differs from the reference at seed %d" what seed
      in
      same "trial"
        (run (fun s ~wait:_ -> Ally.trial s a b ~samples))
        (run (fun s ~wait:_ -> Alias_ref.ally_trial s a b ~samples));
      same "test"
        (run (fun s ~wait -> Ally.test s ~wait a b ~trials ~samples))
        (run (fun s ~wait -> Alias_ref.ally_test s ~wait a b ~trials ~samples));
      true)

let suite =
  [ Alcotest.test_case "monotonic test" `Quick test_monotonic;
    Alcotest.test_case "ally same router" `Quick test_ally_same_router;
    Alcotest.test_case "ally different routers" `Quick test_ally_different_routers;
    Alcotest.test_case "ally unresponsive" `Quick test_ally_unresponsive;
    Alcotest.test_case "ally random ids" `Quick test_ally_random_ids_unusable;
    Alcotest.test_case "ally repetition rejects" `Quick test_ally_repeat_rejects;
    Alcotest.test_case "mercator" `Quick test_mercator;
    Alcotest.test_case "prefixscan /31" `Quick test_prefixscan_31;
    Alcotest.test_case "prefixscan /30" `Quick test_prefixscan_30;
    Alcotest.test_case "prefixscan rejects" `Quick test_prefixscan_rejects;
    Alcotest.test_case "prefixscan direct mate" `Quick test_prefixscan_direct_mate;
    Alcotest.test_case "alias graph closure" `Quick test_graph_closure;
    Alcotest.test_case "alias graph negative veto" `Quick test_graph_negative_veto;
    Alcotest.test_case "alias graph groups" `Quick test_graph_groups;
    Qc.to_alcotest prop_ally_matches_reference ]
