(* Serialization round-trips for collections and inferred links. *)

module Gen = Topogen.Gen
open Netcore

let run = lazy (
  let w = Gen.generate Topogen.Scenario.tiny in
  let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup w in
  let vp = List.hd w.vps in
  (w, inputs, Bdrmap.Pipeline.execute engine inputs ~vp))

let test_collection_roundtrip () =
  let _, _, r = Lazy.force run in
  let lines = Bdrmap.Output.collection_to_lines r.collection in
  match Bdrmap.Output.collection_of_lines lines with
  | Error e -> Alcotest.fail e
  | Ok c ->
    Alcotest.(check int) "traces preserved"
      (List.length r.collection.traces)
      (List.length c.traces);
    Alcotest.(check int) "mates preserved"
      (List.length r.collection.mates)
      (List.length c.mates);
    Alcotest.(check int) "icmp preserved"
      (List.length r.collection.other_icmp)
      (List.length c.other_icmp);
    Alcotest.(check int) "stop-set hits preserved" r.collection.stopset_hits c.stopset_hits;
    List.iter2
      (fun (t1 : Bdrmap.Trace.t) (t2 : Bdrmap.Trace.t) ->
        Alcotest.(check string) "dst" (Ipv4.to_string t1.dst) (Ipv4.to_string t2.dst);
        Alcotest.(check int) "target" t1.target_asn t2.target_asn;
        Alcotest.(check int) "hops" (Array.length t1.hops) (Array.length t2.hops);
        Alcotest.(check bool) "stopped" t1.stopped t2.stopped)
      r.collection.traces c.traces

let test_inference_stable_after_roundtrip () =
  let _, inputs, r = Lazy.force run in
  let lines = Bdrmap.Output.collection_to_lines r.collection in
  match Bdrmap.Output.collection_of_lines lines with
  | Error e -> Alcotest.fail e
  | Ok c ->
    let g = Bdrmap.Rgraph.build c in
    let inf = Bdrmap.Heuristics.infer r.cfg r.ip2as ~rels:inputs.rels g c in
    Alcotest.(check int) "same number of links"
      (List.length r.inference.links)
      (List.length inf.links);
    let key (l : Bdrmap.Heuristics.border_link) =
      (l.neighbor, Bdrmap.Heuristics.tag_label l.tag)
    in
    Alcotest.(check bool) "same neighbor/tag multiset" true
      (List.sort compare (List.map key r.inference.links)
      = List.sort compare (List.map key inf.links))

let test_links_roundtrip () =
  let _, _, r = Lazy.force run in
  let lines = Bdrmap.Output.links_to_lines r.graph r.inference in
  match Bdrmap.Output.links_of_lines lines with
  | Error e -> Alcotest.fail e
  | Ok records ->
    Alcotest.(check int) "links preserved" (List.length r.inference.links)
      (List.length records);
    List.iter2
      (fun (l : Bdrmap.Heuristics.border_link) (rec_ : Bdrmap.Output.link_record) ->
        Alcotest.(check int) "neighbor" l.neighbor rec_.neighbor;
        Alcotest.(check string) "tag" (Bdrmap.Output.tag_slug l.tag)
          (Bdrmap.Output.tag_slug rec_.tag))
      r.inference.links records

let test_tag_slug_roundtrip () =
  List.iter
    (fun tag ->
      Alcotest.(check bool)
        (Bdrmap.Output.tag_slug tag)
        true
        (Bdrmap.Output.tag_of_slug (Bdrmap.Output.tag_slug tag) = Some tag))
    (Array.to_list Bdrmap.Heuristics.all_tags);
  Alcotest.(check int) "twelve tags" 12 (Array.length Bdrmap.Heuristics.all_tags);
  Alcotest.(check bool) "unknown slug" true (Bdrmap.Output.tag_of_slug "nope" = None)

let test_parse_errors () =
  Alcotest.(check bool) "bad trace line" true
    (Result.is_error (Bdrmap.Output.collection_of_lines [ "trace|x|y" ]));
  Alcotest.(check bool) "bad link line" true
    (Result.is_error (Bdrmap.Output.links_of_lines [ "link|1.2.3.4" ]));
  (* No writer emits vetoes, and a frozen collection holds none. *)
  Alcotest.(check bool) "notalias line" true
    (Result.is_error (Bdrmap.Output.collection_of_lines [ "notalias|1.2.3.4|1.2.3.5" ]));
  (* Trace lines carry the closing replies. *)
  Alcotest.(check bool) "icmp line" true
    (Result.is_error (Bdrmap.Output.collection_of_lines [ "icmp|100|1.8.0.4" ]));
  Alcotest.(check bool) "comments ok" true
    (Result.is_ok (Bdrmap.Output.collection_of_lines [ "# empty"; "" ]))

(* Hop TTLs lie in 1..255 and ascend strictly along a trace. *)
let test_trace_ttls () =
  let line hops = Printf.sprintf "trace|1.8.0.1|100|0|%s|-" hops in
  let parses hops = Result.is_ok (Bdrmap.Output.collection_of_lines [ line hops ]) in
  Alcotest.(check bool) "ascending, with a gap" true (parses "1:1.8.0.2,3:1.8.0.3,255:1.8.0.4");
  List.iter
    (fun (name, hops) -> Alcotest.(check bool) name false (parses hops))
    [ ("negative ttl", "-5:1.8.0.2,0:1.8.0.3,7:1.8.0.4");
      ("ttl 0", "0:1.8.0.2");
      ("ttl 256", "256:1.8.0.2");
      ("ttl 2^62", "4611686018427387904:1.8.0.2");
      ("ttl max_int", Printf.sprintf "%d:1.8.0.2" max_int);
      ("repeated ttl", "2:1.8.0.2,2:1.8.0.3");
      ("descending ttl", "3:1.8.0.2,2:1.8.0.3");
      ("ttl not a number", "x:1.8.0.2") ]

let suite =
  [ Alcotest.test_case "collection roundtrip" `Quick test_collection_roundtrip;
    Alcotest.test_case "inference stable after roundtrip" `Quick
      test_inference_stable_after_roundtrip;
    Alcotest.test_case "links roundtrip" `Quick test_links_roundtrip;
    Alcotest.test_case "tag slug roundtrip" `Quick test_tag_slug_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "trace ttls" `Quick test_trace_ttls ]
