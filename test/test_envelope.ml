(* The one on-disk envelope: its header layout, its atomic publisher,
   and a fuzz property over the three formats behind it (run-store
   entries, routing snapshots, border maps), with the snapshot's count
   words and trailer, and the run entry's and border map's payloads,
   also mutated under a re-sealed digest. The same property covers the
   text decoders of outside input: the offload wire lines, JSON, and
   trace lines. Every mutated image must decode to Ok or a typed
   Error, never raise, and finish within a bound on time and on the
   words it allocates. *)

module E = Store.Envelope
module S = Routing.Bgp.Snapshot

let fmt = { E.magic = "TEST"; version = 7 }

let sealed fmt payload =
  let b = E.create (String.length payload) in
  Bytes.blit_string payload 0 b E.header_len (String.length payload);
  E.seal fmt b;
  b

let test_layout () =
  let b = sealed fmt "payload" in
  let s = Bytes.to_string b in
  Alcotest.(check int) "header + payload" (32 + 7) (String.length s);
  Alcotest.(check string) "magic" "TEST" (String.sub s 0 4);
  Alcotest.(check int32) "version" 7l (String.get_int32_be s 4);
  Alcotest.(check string) "digest" (Digest.string "payload") (String.sub s 8 16);
  Alcotest.(check int64) "length" 7L (String.get_int64_be s 24);
  Alcotest.(check bool) "unseal gives the payload bounds" true
    (E.unseal fmt s = Ok (32, 7));
  Alcotest.(check bool) "other magic" true
    (E.unseal { fmt with E.magic = "NOPE" } s = Error E.Bad_magic);
  Alcotest.(check bool) "other version" true
    (E.unseal { fmt with E.version = 8 } s = Error (E.Bad_version 7));
  Alcotest.(check bool) "empty payload" true
    (E.unseal fmt (Bytes.to_string (sealed fmt "")) = Ok (32, 0));
  (* Sealing a prefix of a longer buffer: the image is that prefix. *)
  let spare = Bytes.cat (sealed fmt "payload") (Bytes.make 5 'x') in
  E.seal ~len:(32 + 7) fmt spare;
  Alcotest.(check bool) "sealed prefix" true (Bytes.sub spare 0 39 = b)

let test_publish () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bdrmap-envelope-test-%d" (Unix.getpid ()))
  in
  let dir = Filename.dirname path and base = Filename.basename path in
  let leftovers () =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun n ->
           String.length n > String.length base
           && String.sub n 0 (String.length base) = base)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      E.publish path (fun oc -> output_string oc "first");
      Alcotest.(check bool) "published" true (E.read_file path = Ok "first");
      (try E.publish path (fun oc -> output_string oc "torn"; failwith "killed")
       with Failure _ -> ());
      Alcotest.(check bool) "failed write leaves the old file" true
        (E.read_file path = Ok "first");
      Alcotest.(check (list string)) "no temp file left" [] (leftovers ()));
  Alcotest.(check bool) "missing file is Absent" true (E.read_file path = Error E.Absent);
  Alcotest.(check bool) "temp names recognised" true
    (E.is_tmp "0123.run.tmp-12-0-3" && not (E.is_tmp "0123.run"))

(* -- Fuzz property -- *)

type image = { name : string; bytes : string; decode : string -> (unit, E.error) result }

module Gen = Topogen.Gen

let store_dir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bdrmap-envelope-fuzz-%d" (Unix.getpid ()))

let run_fmt = { E.magic = "BDRS"; version = Store.format_version }
let map_fmt = { E.magic = "BDMF"; version = Bdrmap.Mapfile.codec_version }

(* One VP's run of the serve fixture's world, stored as a run-store
   entry. *)
let images =
  lazy
    (let w, snapshot, mapfile, _ = Lazy.force Test_serve.fixture in
     let shared = Bdrmap.Pipeline.freeze_routing w in
     let inputs = Bdrmap.Pipeline.inputs_of_world w (Routing.Bgp.of_snapshot snapshot) in
     let vp = List.hd w.Gen.vps in
     let r = List.hd (Bdrmap.Pipeline.execute_all ~shared w inputs ~vps:[ vp ]) in
     let cfg = Bdrmap.Config.default ~vp_asns:inputs.Bdrmap.Pipeline.vp_asns in
     let st = Store.open_dir store_dir in
     let load () = Bdrmap.Run_store.load st ~world:w ~pps:100.0 ~cfg ~vp in
     Bdrmap.Run_store.save st ~world:w ~pps:100.0 ~cfg ~vp
       { Bdrmap.Run_store.collection = r.Bdrmap.Pipeline.collection;
         graph = r.graph;
         inference = r.inference;
         probes = r.probes;
         cache = r.cache };
     let entry =
       Filename.concat store_dir
         (Bdrmap.Run_store.key ~world:w ~pps:100.0 ~cfg ~vp () ^ ".run")
     in
     let unit_of r = Result.map ignore r in
     [| { name = "run entry";
          bytes = Result.get_ok (E.read_file entry);
          decode =
            (fun s ->
              let oc = open_out_bin entry in
              output_string oc s;
              close_out oc;
              Option.fold ~none:(Error E.Corrupt) ~some:(fun _ -> Ok ()) (load ())) };
        { name = "snapshot";
          bytes = Bytes.to_string (S.to_bytes snapshot);
          decode = (fun s -> unit_of (S.of_bytes (Bytes.of_string s))) };
        { name = "mapfile";
          bytes = Bytes.to_string (Bdrmap.Mapfile.to_bytes mapfile);
          decode = (fun s -> unit_of (Bdrmap.Mapfile.of_bytes (Bytes.of_string s))) } |])

let snapshot_fmt = { E.magic = "BDSN"; version = S.codec_version }

(* Printer output of each text decoder; any [Error] counts as the
   typed rejection. *)
let texts =
  lazy
    (let module O = Probesim.Offload in
     let module J = Obs.Json in
     let text name decode bytes =
       let decode s = Result.(map_error (fun _ -> E.Corrupt) (map ignore (decode s))) in
       { name; bytes; decode }
     in
     let addr = Netcore.Ipv4.of_string_exn "10.1.2.3" in
     let json =
       J.Obj
         [ ("schema", J.String "bdrmap-bench/11");
           ("rows", J.List [ J.Obj [ ("v", J.Float 1.5e-7); ("n", J.Int (-42)) ]; J.Null ]);
           ("ok", J.Bool true);
           ("esc", J.String "q\"b\\s\n\001") ]
     in
     let trace =
       Result.get_ok (Obs.Trace_reader.parse_line Test_trace_reader.span_line)
     in
     [| text "trace request" O.request_of_line
          (O.request_to_line (O.Trace { flow = 3; dst = addr; ttl = 12 }));
        text "ping request" O.request_of_line (O.request_to_line (O.Ping addr));
        text "advance request" O.request_of_line (O.request_to_line (O.Advance 1.25));
        text "reply" O.response_of_line
          (O.response_to_line
             (Some
                { Probesim.Engine.src = addr; kind = Ttl_expired; ipid = 513; responder = 0 }));
        text "no reply" O.response_of_line (O.response_to_line None);
        text "json" J.parse (J.to_string json);
        text "trace line" Obs.Trace_reader.parse_line (Obs.Trace_reader.render trace) |])

(* A printed line cut, bit-flipped, spliced with another, or given a
   run of one of its own substrings or of a token its grammar gives
   meaning to. *)
let mutate_text rng =
  let imgs = Lazy.force texts in
  let pick () = imgs.(Random.State.int rng (Array.length imgs)) in
  let img = pick () in
  let s = img.bytes in
  let n = String.length s in
  let cut = Random.State.int rng (n + 1) in
  let before = String.sub s 0 cut and after = String.sub s cut (n - cut) in
  match Random.State.int rng 5 with
  | 0 -> (img, "text truncation", before)
  | 1 ->
    let b = Bytes.of_string s in
    for _ = 0 to Random.State.int rng 4 do
      let i = Random.State.int rng n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8)))
    done;
    (img, "text bit flips", Bytes.to_string b)
  | 2 ->
    let other = (pick ()).bytes in
    let from = Random.State.int rng (String.length other + 1) in
    (img, "text splice", before ^ String.sub other from (String.length other - from))
  | 3 ->
    let len = min (n - cut) (1 + Random.State.int rng 8) in
    let sub = String.sub s cut len in
    let run = String.concat "" (List.init (1 + Random.State.int rng 1000) (fun _ -> sub)) in
    (img, "repeated substring", before ^ run ^ after)
  | _ ->
    let tokens =
      [| "|"; "\""; "\\"; "\\u"; "["; "{"; "}"; ":"; ","; "-"; "1e999";
         "99999999999999999999"; "0x"; "nan"; "\000"; "\255" |]
    in
    let tok = tokens.(Random.State.int rng (Array.length tokens)) in
    let run = String.concat "" (List.init (1 + Random.State.int rng 64) (fun _ -> tok)) in
    (img, "token run", before ^ run ^ after)

(* Values a false length or count word takes: random, the 63-bit wrap
   points, all ones, and near misses of the true value. *)
let false_word rng truth =
  match Random.State.int rng 7 with
  | 0 -> Random.State.int64 rng Int64.max_int
  | 1 -> Int64.shift_left 1L 62
  | 2 -> Int64.shift_left 1L 60
  | 3 -> Int64.shift_left 1L 30
  | 4 -> -1L
  | 5 -> 0L
  | _ -> Int64.add truth (Int64.of_int (Random.State.int rng 17 - 8))

(* The snapshot image's trailer: where it starts (past the four count
   words, the route words and the arena), where its prefix-slot-to-row
   map starts (past the slot table), and the offsets of its count
   words — the originated and selective counts and every inner origin
   set, prefix map and link list count — found by walking the layout
   documented in bgp.ml. *)
let trailer =
  lazy
    (let _, snapshot, _, _ = Lazy.force Test_serve.fixture in
     let b = (Lazy.force images).(1).bytes in
     let nw = S.row_count snapshot * S.asn_count snapshot in
     let start = E.header_len + 32 + (8 * (nw + S.arena_length snapshot)) in
     let rows = start + (8 * S.asn_count snapshot) in
     let off = ref (rows + (8 * S.prefix_count snapshot)) and counts = ref [] in
     let skip k = off := !off + (8 * k) in
     let count () =
       counts := !off :: !counts;
       skip 1;
       Int64.to_int (String.get_int64_be b (!off - 8))
     in
     for _ = 1 to count () do
       skip 1;
       skip (count ())
     done;
     for _ = 1 to count () do
       skip 1;
       for _ = 1 to count () do
         skip 1;
         skip (count ())
       done
     done;
     assert (!off = String.length b);
     (start, rows, Array.of_list !counts))

(* A binary format and a mutation of its valid image. *)
let mutate_binary rng =
  let imgs = Lazy.force images in
  let pick () = imgs.(Random.State.int rng (Array.length imgs)) in
  let img = pick () in
  let b = Bytes.of_string img.bytes in
  let n = Bytes.length b in
  match Random.State.int rng 8 with
  | 0 ->
    for _ = 0 to Random.State.int rng 8 do
      let i = Random.State.int rng n in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8)))
    done;
    (img, "bit flips", Bytes.to_string b)
  | 1 -> (img, "truncation", Bytes.sub_string b 0 (Random.State.int rng n))
  | 2 ->
    let other = (pick ()).bytes in
    let cut = Random.State.int rng (n + 1)
    and from = Random.State.int rng (String.length other + 1) in
    ( img,
      "splice",
      Bytes.sub_string b 0 cut ^ String.sub other from (String.length other - from) )
  | 3 ->
    Bytes.set_int64_be b 24 (false_word rng (Bytes.get_int64_be b 24));
    (img, "false length", Bytes.to_string b)
  | 4 ->
    (* The snapshot's four count words, re-sealed, so the decoder
       rather than the digest must reject them. *)
    let img = imgs.(1) in
    let b = Bytes.of_string img.bytes in
    for _ = 0 to Random.State.int rng 2 do
      let off = E.header_len + (8 * Random.State.int rng 4) in
      Bytes.set_int64_be b off (false_word rng (Bytes.get_int64_be b off))
    done;
    E.seal snapshot_fmt b;
    (img, "count words", Bytes.to_string b)
  | 5 ->
    (* The snapshot's row map given a row past the row count, or the
       row count word inflated, re-sealed likewise. *)
    let img = imgs.(1) in
    let _, snapshot, _, _ = Lazy.force Test_serve.fixture in
    let _, rows, _ = Lazy.force trailer in
    let b = Bytes.of_string img.bytes in
    let nrows = S.row_count snapshot in
    let how =
      if Random.State.bool rng then begin
        let off = rows + (8 * Random.State.int rng (S.prefix_count snapshot)) in
        Bytes.set_int64_be b off (Int64.of_int (nrows + Random.State.int rng 3));
        "row past the count"
      end
      else begin
        Bytes.set_int64_be b (E.header_len + 16) (Int64.of_int (nrows + 1 + Random.State.int rng 3));
        "inflated row count"
      end
    in
    E.seal snapshot_fmt b;
    (img, how, Bytes.to_string b)
  | 6 ->
    (* The run entry's or the border map's payload bit-flipped, cut
       short, or given a run of high bytes (a huge varint count),
       re-sealed likewise; the run entry's key is left intact. *)
    let which = if Random.State.bool rng then 0 else 2 in
    let img = imgs.(which) in
    let fmt = if which = 0 then run_fmt else map_fmt in
    let start = E.header_len + if which = 0 then 32 else 0 in
    let b = Bytes.of_string img.bytes in
    let n = Bytes.length b in
    let at = start + Random.State.int rng (n - start) in
    let how, b =
      match Random.State.int rng 3 with
      | 0 ->
        for _ = 0 to Random.State.int rng 8 do
          let i = start + Random.State.int rng (n - start) in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8)))
        done;
        ("payload bit flips", b)
      | 1 -> ("payload truncation", Bytes.sub b 0 at)
      | _ ->
        Bytes.fill b at (min (n - at) (1 + Random.State.int rng 9)) '\xff';
        ("payload high bytes", b)
    in
    E.seal fmt b;
    (img, how, Bytes.to_string b)
  | _ ->
    (* The snapshot's trailer cut short, bit-flipped, or given a false
       inner count, re-sealed likewise. *)
    let img = imgs.(1) in
    let start, _, counts = Lazy.force trailer in
    let b = Bytes.of_string img.bytes in
    let n = Bytes.length b in
    let how, b =
      match Random.State.int rng 3 with
      | 0 -> ("trailer truncation", Bytes.sub b 0 (start + Random.State.int rng (n - start)))
      | 1 ->
        for _ = 0 to Random.State.int rng 8 do
          let i = start + Random.State.int rng (n - start) in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8)))
        done;
        ("trailer bit flips", b)
      | _ ->
        let off = counts.(Random.State.int rng (Array.length counts)) in
        Bytes.set_int64_be b off (false_word rng (Bytes.get_int64_be b off));
        ("trailer count", b)
    in
    E.seal snapshot_fmt b;
    (img, how, Bytes.to_string b)

(* One seed picks a format and a mutation: a text line one time in
   four. *)
let mutate seed =
  let rng = Random.State.make [| seed |] in
  if Random.State.int rng 4 = 0 then mutate_text rng else mutate_binary rng

let time_bound_s = 2.0

(* Words a decode may allocate per byte of its image, plus a constant:
   the file read, and a decoded value no larger than the counts the
   bytes left can bound. A valid run entry decodes in a few words per
   byte. *)
let words_per_byte = 64
let words_const = 1 lsl 20

(* A mutated row map sits behind a valid digest, so only the decoder's
   own layout check can reject it, and it must. *)
let row_mutation how = how = "row past the count" || how = "inflated row count"

let prop_envelope_fuzz =
  QCheck.Test.make ~count:400 ~name:"envelope and text formats decode mutated images totally"
    QCheck.(make ~print:(Printf.sprintf "seed %d") Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let img, how, s = mutate seed in
      let a0 = Gc.allocated_bytes () in
      let t0 = Obs.Clock.now_ns () in
      match img.decode s with
      | exception e ->
        QCheck.Test.fail_reportf "%s, %s: raised %s" img.name how (Printexc.to_string e)
      | r ->
        let dt = Obs.Clock.seconds_since t0 in
        let words = int_of_float ((Gc.allocated_bytes () -. a0) /. 8.) in
        let word_bound = (words_per_byte * String.length s) + words_const in
        ((not (row_mutation how)) || r = Error E.Corrupt
        || QCheck.Test.fail_reportf "%s, %s: not Corrupt" img.name how)
        && (dt < time_bound_s
           || QCheck.Test.fail_reportf "%s, %s: took %.3f s" img.name how dt)
        && (words <= word_bound
           || QCheck.Test.fail_reportf "%s, %s: allocated %d words (bound %d)" img.name
                how words word_bound))

let test_fuzz () =
  let level = Obs.Log.level () in
  Obs.Log.set_level Obs.Log.Quiet;
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_level level;
      ignore (Store.gc ~all:true (Store.open_dir store_dir) : Store.gc_stats);
      try Unix.rmdir store_dir with Unix.Unix_error _ -> ())
    (fun () ->
      let _, _, run = Qc.to_alcotest prop_envelope_fuzz in
      run ())

let suite =
  [ Alcotest.test_case "header layout" `Quick test_layout;
    Alcotest.test_case "atomic publish" `Quick test_publish;
    Alcotest.test_case "fuzz: mutated images decode totally" `Quick test_fuzz ]
