(* The query server end to end: wire codec round trips, query-map
   semantics against the pipeline's own merged output, the zero-alloc
   guarantee of the per-frame handler, typed protocol errors on
   malformed peers (both directions), signal-driven teardown leaving no
   stale socket, and serial-vs-concurrent answer identity. *)

open Netcore
module Gen = Topogen.Gen

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* -- Shared fixture: the tiny world's merged map, built once -- *)

let fixture =
  lazy
    (let w = Gen.generate Topogen.Scenario.tiny in
     let shared = Bdrmap.Pipeline.freeze_routing w in
     let snapshot = shared.Bdrmap.Pipeline.snapshot in
     let bgp = Routing.Bgp.of_snapshot snapshot in
     let inputs = Bdrmap.Pipeline.inputs_of_world w bgp in
     let runs = Bdrmap.Pipeline.execute_all ~shared w inputs ~vps:w.Gen.vps in
     let merged =
       Bdrmap.Aggregate.merge_runs
         (List.map2
            (fun (vp : Gen.vp) (r : Bdrmap.Pipeline.run) ->
              (vp.Gen.vp_name, r.Bdrmap.Pipeline.graph, r.Bdrmap.Pipeline.inference))
            w.Gen.vps runs)
     in
     let mapfile = Bdrmap.Mapfile.make ~host_asns:w.Gen.siblings ~bgp merged in
     (w, snapshot, mapfile, Serve.Qmap.build ~snapshot mapfile))

let socket_counter = ref 0

let fresh_path () =
  incr socket_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "bdrmap-test-serve-%d-%d.sock" (Unix.getpid ())
       !socket_counter)

(* -- Protocol: codec and write-buffer round trips -- *)

let test_codec_roundtrip () =
  let wb = Serve.Protocol.wbuf_create 8 in
  let u32s = [ 0; 1; 0xFF; 0xFFFF; 0x1020304; 0xFFFFFFFF ] in
  let u64s = [ 0; 42; max_int ] in
  Serve.Protocol.put_u8 wb 0xAB;
  Serve.Protocol.put_u16 wb 0xCDEF;
  List.iter (Serve.Protocol.put_u32 wb) u32s;
  List.iter (Serve.Protocol.put_u64 wb) u64s;
  Serve.Protocol.put_string wb "border";
  let b = wb.Serve.Protocol.buf in
  Alcotest.(check int) "u8" 0xAB (Serve.Protocol.get_u8 b 0);
  Alcotest.(check int) "u16" 0xCDEF (Serve.Protocol.get_u16 b 1);
  List.iteri
    (fun i v ->
      Alcotest.(check int)
        (Printf.sprintf "u32 #%d" i)
        v
        (Serve.Protocol.get_u32 b (3 + (4 * i))))
    u32s;
  let off64 = 3 + (4 * List.length u32s) in
  List.iteri
    (fun i v ->
      Alcotest.(check int)
        (Printf.sprintf "u64 #%d" i)
        v
        (Serve.Protocol.get_u64 b (off64 + (8 * i))))
    u64s;
  let soff = off64 + (8 * List.length u64s) in
  Alcotest.(check string) "string bytes" "border"
    (Bytes.sub_string b soff 6);
  Alcotest.(check int) "length tracks" (soff + 6) wb.Serve.Protocol.len;
  (* patch_u32 back-fills without moving the cursor — the length-prefix
     idiom every response frame uses. *)
  Serve.Protocol.patch_u32 wb 3 0xDEADBEEF;
  Alcotest.(check int) "patched" 0xDEADBEEF
    (Serve.Protocol.get_u32 wb.Serve.Protocol.buf 3);
  Alcotest.(check int) "cursor unmoved" (soff + 6) wb.Serve.Protocol.len;
  (* clear resets the cursor but keeps the grown backing array. *)
  let cap = Bytes.length wb.Serve.Protocol.buf in
  Serve.Protocol.wbuf_clear wb;
  Alcotest.(check int) "cleared" 0 wb.Serve.Protocol.len;
  Alcotest.(check int) "capacity kept" cap (Bytes.length wb.Serve.Protocol.buf)

(* -- Qmap: semantics against the merged map it was built from -- *)

let test_qmap_owner_semantics () =
  let w, _snapshot, mapfile, qmap = Lazy.force fixture in
  let host = Serve.Qmap.host_asn qmap in
  Alcotest.(check bool) "host ASN is a sibling" true
    (Asn.Set.mem host w.Gen.siblings);
  Alcotest.(check bool) "border addresses indexed" true
    (Serve.Qmap.border_count qmap > 0);
  (* Every near-side address answers with a hosting AS; every far-side
     address answers with some neighbor of the merged map (an address
     can appear in several links, so "its" neighbor is not unique). *)
  let neighbors =
    List.fold_left
      (fun acc (m : Bdrmap.Aggregate.merged) ->
        Asn.Set.add m.Bdrmap.Aggregate.neighbor acc)
      Asn.Set.empty mapfile.Bdrmap.Mapfile.merged
  in
  (* An address can sit on the near side of one link and the far side
     of another (a router interface shared across adjacencies), so the
     side-exclusive claims only hold for addresses seen on exactly one
     side across the whole merged map. *)
  let near_all, far_all =
    List.fold_left
      (fun (near, far) (m : Bdrmap.Aggregate.merged) ->
        ( Ipv4.Set.union near m.Bdrmap.Aggregate.near_addrs,
          Ipv4.Set.union far m.Bdrmap.Aggregate.far_addrs ))
      (Ipv4.Set.empty, Ipv4.Set.empty)
      mapfile.Bdrmap.Mapfile.merged
  in
  Ipv4.Set.iter
    (fun a ->
      let o = Serve.Qmap.owner qmap a in
      Alcotest.(check bool)
        (Ipv4.to_string a ^ " border address owned by host or neighbor")
        true
        (Asn.Set.mem o w.Gen.siblings || Asn.Set.mem o neighbors))
    (Ipv4.Set.union near_all far_all);
  Ipv4.Set.iter
    (fun a ->
      Alcotest.(check bool)
        (Ipv4.to_string a ^ " near-only address owned by hosting org")
        true
        (Asn.Set.mem (Serve.Qmap.owner qmap a) w.Gen.siblings))
    (Ipv4.Set.diff near_all far_all);
  Ipv4.Set.iter
    (fun a ->
      Alcotest.(check bool)
        (Ipv4.to_string a ^ " far-only address owned by a neighbor")
        true
        (Asn.Set.mem (Serve.Qmap.owner qmap a) neighbors))
    (Ipv4.Set.diff far_all near_all);
  (* Routed non-border addresses resolve to their origin; unrouted space
     answers 0. *)
  (match mapfile.Bdrmap.Mapfile.origins with
  | (p, origin) :: _ ->
    let probe = Prefix.first p in
    if Serve.Qmap.owner qmap probe <> 0 && Serve.Qmap.border_count qmap > 0 then
      Alcotest.(check bool) "covered address answers an ASN" true
        (Serve.Qmap.owner qmap probe = origin
        || Asn.Set.mem (Serve.Qmap.owner qmap probe) w.Gen.siblings
        || Asn.Set.mem (Serve.Qmap.owner qmap probe) neighbors)
  | [] -> Alcotest.fail "mapfile derived no origins");
  Alcotest.(check int) "unrouted space is unknown" 0
    (Serve.Qmap.owner qmap (Ipv4.of_string_exn "8.8.8.8"))

let test_qmap_crossings_and_provenance () =
  let w, _snapshot, mapfile, qmap = Lazy.force fixture in
  let host = Serve.Qmap.host_asn qmap in
  (match mapfile.Bdrmap.Mapfile.merged with
  | [] -> Alcotest.fail "merged map is empty"
  | m :: _ ->
    let nb = m.Bdrmap.Aggregate.neighbor in
    let lines = Serve.Qmap.crossings qmap host nb in
    Alcotest.(check bool) "host x neighbor has lines" true (lines <> []);
    Alcotest.(check (list string)) "crossings are symmetric" lines
      (Serve.Qmap.crossings qmap nb host);
    List.iter
      (fun l ->
        Alcotest.(check bool) ("link line: " ^ l) true
          (contains ~sub:"link|" l
          && contains ~sub:(Printf.sprintf "|%d|" nb) l))
      lines;
    (* Neither side hosting: the map has nothing to say. *)
    Alcotest.(check (list string)) "foreign pair is empty" []
      (Serve.Qmap.crossings qmap 65001 65002));
  (* Every border address carries a provenance line naming its side and
     at least one witnessing VP. *)
  List.iter
    (fun (m : Bdrmap.Aggregate.merged) ->
      Ipv4.Set.iter
        (fun a ->
          match Serve.Qmap.provenance qmap a with
          | None -> Alcotest.fail (Ipv4.to_string a ^ ": no provenance")
          | Some line ->
            Alcotest.(check bool) ("provenance: " ^ line) true
              (contains ~sub:("provenance|" ^ Ipv4.to_string a ^ "|") line
              && (contains ~sub:"|near|" line || contains ~sub:"|far|" line)))
        (Ipv4.Set.union m.Bdrmap.Aggregate.near_addrs
           m.Bdrmap.Aggregate.far_addrs))
    mapfile.Bdrmap.Mapfile.merged;
  Alcotest.(check bool) "unknown address has no provenance" true
    (Serve.Qmap.provenance qmap (Ipv4.of_string_exn "8.8.8.8") = None);
  ignore w

(* -- Mapfile: header-validated round trip -- *)

let test_mapfile_roundtrip () =
  let _, _, mapfile, _ = Lazy.force fixture in
  let b = Bdrmap.Mapfile.to_bytes mapfile in
  (match Bdrmap.Mapfile.of_bytes b with
  | Error e -> Alcotest.fail (Bdrmap.Mapfile.error_label e)
  | Ok mf ->
    Alcotest.(check int) "merged links survive"
      (List.length mapfile.Bdrmap.Mapfile.merged)
      (List.length mf.Bdrmap.Mapfile.merged);
    Alcotest.(check int) "origins survive"
      (List.length mapfile.Bdrmap.Mapfile.origins)
      (List.length mf.Bdrmap.Mapfile.origins);
    Alcotest.(check bool) "host set survives" true
      (Asn.Set.equal mapfile.Bdrmap.Mapfile.host_asns mf.Bdrmap.Mapfile.host_asns);
    Alcotest.(check bool) "origins survive by value" true
      (mapfile.Bdrmap.Mapfile.origins = mf.Bdrmap.Mapfile.origins);
    Alcotest.(check bool) "links survive by content" true
      (List.for_all2
         (fun (a : Bdrmap.Aggregate.merged) (b : Bdrmap.Aggregate.merged) ->
           Ipv4.Set.equal a.near_addrs b.near_addrs
           && Ipv4.Set.equal a.far_addrs b.far_addrs
           && a.neighbor = b.neighbor && a.tags = b.tags && a.seen_by = b.seen_by)
         mapfile.Bdrmap.Mapfile.merged mf.Bdrmap.Mapfile.merged);
    Alcotest.(check bool) "re-encodes to the same bytes" true
      (Bdrmap.Mapfile.to_bytes mf = b));
  (* A map whose digest is valid but whose origins do not ascend: only
     the decoder can reject it, and it does, with a typed error. *)
  let crafted =
    Bdrmap.Mapfile.to_bytes
      { mapfile with Bdrmap.Mapfile.origins = List.rev mapfile.Bdrmap.Mapfile.origins }
  in
  Alcotest.(check bool) "crafted map is Corrupt" true
    (Bdrmap.Mapfile.of_bytes crafted = Error Bdrmap.Mapfile.Corrupt);
  (* A flipped payload byte is a typed Corrupt, not a Marshal crash. *)
  let flipped = Bytes.copy b in
  Bytes.set flipped (Bytes.length flipped - 1)
    (Char.chr (Char.code (Bytes.get flipped (Bytes.length flipped - 1)) lxor 1));
  Alcotest.(check bool) "flipped byte is Corrupt" true
    (Bdrmap.Mapfile.of_bytes flipped = Error Bdrmap.Mapfile.Corrupt);
  let short = Bytes.sub b 0 (Bytes.length b - 1) in
  Alcotest.(check bool) "short payload is typed" true
    (match Bdrmap.Mapfile.of_bytes short with
    | Error (Bdrmap.Mapfile.Truncated | Bdrmap.Mapfile.Corrupt) -> true
    | _ -> false);
  let wrong = Bytes.copy b in
  Bytes.blit_string "NOPE" 0 wrong 0 4;
  Alcotest.(check bool) "wrong magic is typed" true
    (Bdrmap.Mapfile.of_bytes wrong = Error Bdrmap.Mapfile.Bad_magic)

(* The artifact's bytes are a pure function of the map: this digest of
   [Mapfile.to_bytes] on the fixture was taken when the border map
   moved onto its explicit codec (codec version 2). *)
let test_mapfile_bytes_pinned () =
  let _, _, mapfile, _ = Lazy.force fixture in
  Alcotest.(check string) "tiny-world map bytes" "d3c5ac4b84fe91e8a69289be69077cfc"
    (Digest.to_hex (Digest.bytes (Bdrmap.Mapfile.to_bytes mapfile)))

(* Three shapes the border map's own header code once let through: a
   declared length with bit 62 set (raised from [Bytes.sub], killing
   [serve --map]), trailing bytes after the payload (accepted), and a
   missing file (reported as Truncated). *)
let test_mapfile_defects () =
  let _, _, mapfile, _ = Lazy.force fixture in
  let b = Bdrmap.Mapfile.to_bytes mapfile in
  let huge = Bytes.copy b in
  Bytes.set huge 24 '\x40';
  Alcotest.(check bool) "bit-62 length is Truncated" true
    (Bdrmap.Mapfile.of_bytes huge = Error Bdrmap.Mapfile.Truncated);
  let trailing = Bytes.cat b (Bytes.of_string "tail") in
  Alcotest.(check bool) "trailing bytes are Truncated" true
    (Bdrmap.Mapfile.of_bytes trailing = Error Bdrmap.Mapfile.Truncated);
  let missing =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bdrmap-test-no-such-map-%d" (Unix.getpid ()))
  in
  Alcotest.(check bool) "missing file is Absent" true
    (Bdrmap.Mapfile.load missing = Error Bdrmap.Mapfile.Absent)

(* -- Server.handle: the zero-alloc pin -- *)

let test_handle_zero_alloc () =
  let _, _, _, qmap = Lazy.force fixture in
  let ctx = Serve.Server.ctx_create qmap in
  let sample = Serve.Qmap.sample_addrs qmap in
  Alcotest.(check bool) "sample addresses exist" true (Array.length sample > 0);
  (* One owner request frame: opcode + 64 addresses. *)
  let batch = 64 in
  let req = Serve.Protocol.wbuf_create 16 in
  Serve.Protocol.put_u8 req Serve.Protocol.op_owner;
  for i = 0 to batch - 1 do
    Serve.Protocol.put_u32 req
      (Ipv4.to_int sample.(i mod Array.length sample))
  done;
  let payload = Bytes.sub req.Serve.Protocol.buf 0 req.Serve.Protocol.len in
  let wb = Serve.Protocol.wbuf_create 16 in
  let shoot () =
    Serve.Protocol.wbuf_clear wb;
    Serve.Server.handle ctx payload ~off:0 ~len:(Bytes.length payload) wb
  in
  (* Warmup grows the response buffer to its steady-state size. *)
  for _ = 1 to 100 do
    shoot ()
  done;
  let rounds = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    shoot ()
  done;
  let dw = Gc.minor_words () -. w0 in
  (* 640k owner queries; the handler itself must stay off the
     allocator. The slack covers the two boxed floats of the
     Gc.minor_words probes themselves. *)
  Alcotest.(check bool)
    (Printf.sprintf "handler allocated %.0f minor words over %d frames" dw rounds)
    true (dw < 256.0);
  (* And the frames it produced are well-formed ok responses. *)
  let b = wb.Serve.Protocol.buf in
  Alcotest.(check int) "payload length" (1 + (4 * batch))
    (Serve.Protocol.get_u32 b 0);
  Alcotest.(check int) "ok status" 0 (Serve.Protocol.get_u8 b 4)

(* -- Typed protocol errors, both directions -- *)

(* A fake peer: accepts one connection on [path], sends [greeting],
   then closes. Exercises the client's greeting validation. *)
let with_fake_server greeting k =
  let path = fresh_path () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 1;
  let d =
    Domain.spawn (fun () ->
        let c, _ = Unix.accept fd in
        (try
           ignore (Unix.write_substring c greeting 0 (String.length greeting))
         with Unix.Unix_error _ -> ());
        Unix.close c)
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join d;
      Unix.close fd;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> k path)

let test_client_greeting_errors () =
  with_fake_server "JUNKAB" (fun path ->
      match Serve.Client.connect path with
      | Ok c ->
        Serve.Client.close c;
        Alcotest.fail "connected through a bad magic"
      | Error Serve.Protocol.Bad_magic -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ Serve.Protocol.error_label e));
  with_fake_server "BDQS\x00\x63" (fun path ->
      match Serve.Client.connect path with
      | Ok c ->
        Serve.Client.close c;
        Alcotest.fail "connected through a bad version"
      | Error (Serve.Protocol.Bad_version 99) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ Serve.Protocol.error_label e));
  with_fake_server "BD" (fun path ->
      match Serve.Client.connect path with
      | Ok c ->
        Serve.Client.close c;
        Alcotest.fail "connected through a truncated greeting"
      | Error Serve.Protocol.Truncated -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ Serve.Protocol.error_label e))

(* A live server on its own domain for the duration of [k]. *)
let with_server ?exposition k =
  let _, _, _, qmap = Lazy.force fixture in
  let path = fresh_path () in
  let server = Serve.Server.create ?exposition ~path qmap in
  let d = Domain.spawn (fun () -> Serve.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join d)
    (fun () -> k path qmap)

(* Raw framed exchange against a live server, bypassing the typed
   client: returns the response payload. *)
let raw_round_trip path payload =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let rec read_exact b off len =
        if len > 0 then
          match Unix.read fd b off len with
          | 0 -> failwith "peer closed"
          | n -> read_exact b (off + n) (len - n)
      in
      let greeting = Bytes.create 6 in
      read_exact greeting 0 6;
      let frame = Bytes.create (4 + Bytes.length payload) in
      Serve.Protocol.set_u32 frame 0 (Bytes.length payload);
      Bytes.blit payload 0 frame 4 (Bytes.length payload);
      ignore (Unix.write fd frame 0 (Bytes.length frame));
      let hdr = Bytes.create 4 in
      read_exact hdr 0 4;
      let n = Serve.Protocol.get_u32 hdr 0 in
      let resp = Bytes.create n in
      read_exact resp 0 n;
      resp)

let expect_error_frame name resp =
  Alcotest.(check bool) (name ^ ": error status") true
    (Bytes.length resp >= 2 && Serve.Protocol.get_u8 resp 0 = 1)

let test_server_error_frames () =
  with_server (fun path _qmap ->
      (* Unknown opcode. *)
      expect_error_frame "bad opcode" (raw_round_trip path (Bytes.make 1 '\xF0'));
      (* op_owner with a body that is not a multiple of 4. *)
      let bad = Bytes.create 3 in
      Bytes.set bad 0 (Char.chr Serve.Protocol.op_owner);
      expect_error_frame "malformed owner body" (raw_round_trip path bad);
      (* op_crossings with a short body. *)
      let short = Bytes.create 5 in
      Bytes.set short 0 (Char.chr Serve.Protocol.op_crossings);
      expect_error_frame "short crossings body" (raw_round_trip path short);
      (* The typed client surfaces these as Server_error, and the
         connection survives to answer the next (valid) request. *)
      match Serve.Client.connect path with
      | Error e -> Alcotest.fail (Serve.Protocol.error_label e)
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            (match Serve.Client.stats c with
            | Ok s -> Alcotest.(check bool) "errors counted" true (s.Serve.Client.errors >= 3)
            | Error e -> Alcotest.fail (Serve.Protocol.error_label e))))

let test_server_oversized_frame () =
  with_server (fun path _qmap ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let rec read_exact b off len =
            if len > 0 then
              match Unix.read fd b off len with
              | 0 -> raise Exit
              | n -> read_exact b (off + n) (len - n)
          in
          let greeting = Bytes.create 6 in
          read_exact greeting 0 6;
          (* Declare a payload over max_frame: the server answers one
             error frame and closes the connection. *)
          let hdr = Bytes.create 4 in
          Serve.Protocol.set_u32 hdr 0 (Serve.Protocol.max_frame + 1);
          ignore (Unix.write fd hdr 0 4);
          let resp_hdr = Bytes.create 4 in
          read_exact resp_hdr 0 4;
          let n = Serve.Protocol.get_u32 resp_hdr 0 in
          let resp = Bytes.create n in
          read_exact resp 0 n;
          Alcotest.(check int) "error status" 1 (Serve.Protocol.get_u8 resp 0);
          (* ... and then EOF. *)
          match Unix.read fd resp_hdr 0 4 with
          | 0 -> ()
          | _ -> Alcotest.fail "connection stayed open past an oversized frame"
          | exception Exit -> ()))

(* -- Lifecycle: a signal-driven stop leaves no stale socket -- *)

let test_signal_stop_no_stale_socket () =
  let _, _, _, qmap = Lazy.force fixture in
  let path = fresh_path () in
  let server = Serve.Server.create ~path qmap in
  let prev =
    Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Serve.Server.stop server))
  in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigusr1 prev)
    (fun () ->
      let d = Domain.spawn (fun () -> Serve.Server.run server) in
      (* Mid-query: a client is connected and has traffic in flight
         when the signal lands. *)
      (match Serve.Client.connect path with
      | Error e -> Alcotest.fail (Serve.Protocol.error_label e)
      | Ok c ->
        (match Serve.Client.owner c (Serve.Qmap.sample_addrs qmap).(0) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Serve.Protocol.error_label e));
        Unix.kill (Unix.getpid ()) Sys.sigusr1;
        Domain.join d;
        Serve.Client.close c);
      Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists path);
      (* And a second lifecycle on the same path works (no stale-socket
         bind failure). *)
      let server2 = Serve.Server.create ~path qmap in
      let d2 = Domain.spawn (fun () -> Serve.Server.run server2) in
      (match Serve.Client.connect path with
      | Error e -> Alcotest.fail (Serve.Protocol.error_label e)
      | Ok c -> Serve.Client.close c);
      Serve.Server.stop server2;
      Domain.join d2;
      Alcotest.(check bool) "socket file unlinked again" false
        (Sys.file_exists path))

(* -- Concurrency: 4 client domains see byte-identical answers -- *)

let test_concurrent_identical () =
  with_server (fun path qmap ->
      let sample = Serve.Qmap.sample_addrs qmap in
      let addrs = Array.to_list sample in
      let query () =
        match Serve.Client.connect path with
        | Error e -> failwith (Serve.Protocol.error_label e)
        | Ok c ->
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              match Serve.Client.owner_batch c addrs with
              | Ok owners -> owners
              | Error e -> failwith (Serve.Protocol.error_label e))
      in
      let serial = query () in
      Alcotest.(check bool) "answers exist" true (serial <> []);
      let domains = Array.init 4 (fun _ -> Domain.spawn query) in
      Array.iter
        (fun d ->
          Alcotest.(check (list int)) "concurrent answers identical" serial
            (Domain.join d))
        domains;
      (* The answers agree with the in-process map. *)
      Alcotest.(check (list int)) "wire answers match Qmap.owner"
        (List.map (Serve.Qmap.owner qmap) addrs)
        serial)

(* -- Metrics exposition over the wire -- *)

let test_metrics_opcode () =
  with_server
    ~exposition:(fun () -> "# TYPE bdrmap_up gauge\nbdrmap_up 1\n# EOF\n")
    (fun path _qmap ->
      match Serve.Client.connect path with
      | Error e -> Alcotest.fail (Serve.Protocol.error_label e)
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            match Serve.Client.metrics_text c with
            | Error e -> Alcotest.fail (Serve.Protocol.error_label e)
            | Ok text ->
              Alcotest.(check bool) "exposition served" true
                (contains ~sub:"bdrmap_up 1" text
                && contains ~sub:"# EOF" text)))

(* -- SIGHUP-style hot reload: swap the map under live connections -- *)

let test_hot_reload () =
  let _, snapshot, mapfile, qmap = Lazy.force fixture in
  let path = fresh_path () in
  let reloads = Atomic.make 0 in
  let fail_next = Atomic.make false in
  (* A replacement map whose answers are distinguishable through the
     wire: it hands one routed prefix, whose last address the old map
     answers from that prefix's origin, to a private ASN. *)
  let origin_line p asn =
    Printf.sprintf "provenance|%s|origin|AS%d|%s|-"
      (Ipv4.to_string (Prefix.last p)) asn (Prefix.to_string p)
  in
  let p, before =
    List.find
      (fun (p, asn) ->
        Serve.Qmap.provenance qmap (Prefix.last p) = Some (origin_line p asn))
      mapfile.Bdrmap.Mapfile.origins
  in
  let mf2 =
    { mapfile with
      Bdrmap.Mapfile.origins =
        List.map
          (fun (q, asn) -> if Prefix.equal q p then (q, 65001) else (q, asn))
          mapfile.Bdrmap.Mapfile.origins
    }
  in
  let reload () =
    Atomic.incr reloads;
    if Atomic.get fail_next then None else Some (Serve.Qmap.build ~snapshot mf2)
  in
  let server = Serve.Server.create ~reload ~path qmap in
  let d = Domain.spawn (fun () -> Serve.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join d)
    (fun () ->
      match Serve.Client.connect path with
      | Error e -> Alcotest.fail (Serve.Protocol.error_label e)
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            let addr = Prefix.last p in
            let owner () =
              match Serve.Client.owner c addr with
              | Ok o -> o
              | Error e -> Alcotest.fail (Serve.Protocol.error_label e)
            in
            Alcotest.(check int) "before reload: the prefix's origin" before
              (owner ());
            Serve.Server.request_reload server;
            (* The swap is asynchronous (event loop); the connection
               opened before the reload must observe it without
               reconnecting. *)
            let rec await tries =
              if owner () = 65001 then ()
              else if tries = 0 then
                Alcotest.fail "reload never took effect"
              else begin
                Unix.sleepf 0.02;
                await (tries - 1)
              end
            in
            await 250;
            Alcotest.(check int) "reload callback ran once" 1
              (Atomic.get reloads);
            (* A rebuild that fails (callback returns None) keeps the
               current map serving. *)
            Atomic.set fail_next true;
            Serve.Server.request_reload server;
            let rec await_fail tries =
              if Atomic.get reloads >= 2 then ()
              else if tries = 0 then Alcotest.fail "second reload never ran"
              else begin
                Unix.sleepf 0.02;
                await_fail (tries - 1)
              end
            in
            await_fail 250;
            Alcotest.(check int) "failed rebuild keeps current map" 65001
              (owner ())))

let suite =
  [ Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "qmap owner semantics" `Quick test_qmap_owner_semantics;
    Alcotest.test_case "qmap crossings and provenance" `Quick
      test_qmap_crossings_and_provenance;
    Alcotest.test_case "mapfile roundtrip" `Quick test_mapfile_roundtrip;
    Alcotest.test_case "mapfile bytes pinned" `Quick test_mapfile_bytes_pinned;
    Alcotest.test_case "mapfile header defects" `Quick test_mapfile_defects;
    Alcotest.test_case "handle is zero-alloc" `Quick test_handle_zero_alloc;
    Alcotest.test_case "client greeting errors" `Quick test_client_greeting_errors;
    Alcotest.test_case "server error frames" `Quick test_server_error_frames;
    Alcotest.test_case "oversized frame closes connection" `Quick
      test_server_oversized_frame;
    Alcotest.test_case "signal stop leaves no stale socket" `Quick
      test_signal_stop_no_stale_socket;
    Alcotest.test_case "concurrent answers identical" `Slow
      test_concurrent_identical;
    Alcotest.test_case "metrics opcode" `Quick test_metrics_opcode;
    Alcotest.test_case "hot reload swaps map under live connections" `Quick
      test_hot_reload ]
