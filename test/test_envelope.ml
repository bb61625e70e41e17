(* The one on-disk envelope: its header layout, its atomic publisher,
   and a fuzz property over the three formats behind it (run-store
   entries, routing snapshots, border maps). Every mutated image must
   decode to Ok or a typed Error, never raise, and finish in bounded
   time. *)

module E = Store.Envelope
module S = Routing.Bgp.Snapshot

let fmt = { E.magic = "TEST"; version = 7 }

let test_layout () =
  let b = E.seal_string fmt "payload" in
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
    (E.unseal fmt (Bytes.to_string (E.seal_string fmt "")) = Ok (32, 0))

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

let store_dir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bdrmap-envelope-fuzz-%d" (Unix.getpid ()))

let store_key = Digest.to_hex (Digest.string "fuzz-entry")

let images =
  lazy
    (let _, snapshot, mapfile, _ = Lazy.force Test_serve.fixture in
     let st = Store.open_dir store_dir in
     let entry = Filename.concat store_dir (store_key ^ ".run") in
     ignore (Store.write st ~key:store_key (Marshal.to_string mapfile []) : int);
     let unit_of r = Result.map ignore r in
     [| { name = "store entry";
          bytes = Result.get_ok (E.read_file entry);
          decode =
            (fun s ->
              let oc = open_out_bin entry in
              output_string oc s;
              close_out oc;
              unit_of (Store.read st ~key:store_key)) };
        { name = "snapshot";
          bytes = Bytes.to_string (S.to_bytes snapshot);
          decode = (fun s -> unit_of (S.of_bytes (Bytes.of_string s))) };
        { name = "mapfile";
          bytes = Bytes.to_string (Bdrmap.Mapfile.to_bytes mapfile);
          decode = (fun s -> unit_of (Bdrmap.Mapfile.of_bytes (Bytes.of_string s))) } |])

let snapshot_fmt = { E.magic = "BDSN"; version = S.codec_version }

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

(* One seed picks a format and a mutation of its valid image. *)
let mutate seed =
  let rng = Random.State.make [| seed |] in
  let imgs = Lazy.force images in
  let pick () = imgs.(Random.State.int rng (Array.length imgs)) in
  let img = pick () in
  let b = Bytes.of_string img.bytes in
  let n = Bytes.length b in
  match Random.State.int rng 5 with
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
  | _ ->
    (* The snapshot's four count words, re-sealed: the only bytes a
       digest-valid image reaches before [Marshal]. *)
    let img = imgs.(1) in
    let b = Bytes.of_string img.bytes in
    for _ = 0 to Random.State.int rng 2 do
      let off = E.header_len + (8 * Random.State.int rng 4) in
      Bytes.set_int64_be b off (false_word rng (Bytes.get_int64_be b off))
    done;
    E.seal snapshot_fmt b;
    (img, "count words", Bytes.to_string b)

let time_bound_s = 2.0

let prop_envelope_fuzz =
  QCheck.Test.make ~count:300 ~name:"envelope formats decode mutated images totally"
    QCheck.(make ~print:(Printf.sprintf "seed %d") Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let img, how, s = mutate seed in
      let t0 = Obs.Clock.now_ns () in
      match img.decode s with
      | exception e ->
        QCheck.Test.fail_reportf "%s, %s: raised %s" img.name how (Printexc.to_string e)
      | Ok () | Error _ ->
        let dt = Obs.Clock.seconds_since t0 in
        dt < time_bound_s
        || QCheck.Test.fail_reportf "%s, %s: took %.3f s" img.name how dt)

let test_fuzz () =
  Fun.protect
    ~finally:(fun () ->
      ignore (Store.gc ~all:true (Store.open_dir store_dir) : Store.gc_stats);
      try Unix.rmdir store_dir with Unix.Unix_error _ -> ())
    (fun () ->
      let _, _, run = Qc.to_alcotest prop_envelope_fuzz in
      run ())

let suite =
  [ Alcotest.test_case "header layout" `Quick test_layout;
    Alcotest.test_case "atomic publish" `Quick test_publish;
    Alcotest.test_case "fuzz: mutated images decode totally" `Quick test_fuzz ]
