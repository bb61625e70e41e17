(* Self-test of bench/check_bench: runs check_bench.exe on a passing
   rows fixture, then on one edited copy per line of a cases file (see
   check_bench_cases.txt). The fixture must pass; every edited copy must
   exit 1 and name its gate on stderr, so each budget is shown to fail
   both when its bound is crossed and when its row is missing.

   Usage: check_bench_selftest.exe CHECK_BENCH_EXE FIXTURE CASES *)

module Json = Obs.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("check_bench self-test: " ^ m);
      exit 1)
    fmt

let read path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let row_name r =
  String.concat "."
    (List.filter_map
       (fun k ->
         match Option.bind (Json.member k r) Json.to_str with
         | Some "" | None -> None
         | s -> s)
       [ "workload"; "layer"; "metric" ])

(* Runs check_bench on [doc]; returns its exit code and stderr. *)
let check exe doc =
  let tmp = Filename.temp_file "check_bench" ".json" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc doc);
  let out, inp, err =
    Unix.open_process_args_full exe [| exe; tmp |] (Unix.environment ())
  in
  close_out inp;
  ignore (In_channel.input_all out);
  let msg = In_channel.input_all err in
  let status = Unix.close_process_full (out, inp, err) in
  Sys.remove tmp;
  ((match status with Unix.WEXITED c -> c | _ -> -1), msg)

let edit fixture targets value =
  let hit = ref [] in
  let set r =
    match r with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "value" then (k, Json.Float (float_of_string value)) else (k, v))
           fields)
    | r -> r
  in
  let field (k, v) =
    match (k, v) with
    | "schema", _ when List.mem "schema" targets ->
      hit := "schema" :: !hit;
      (k, Json.String value)
    | "rows", Json.List rows ->
      ( k,
        Json.List
          (List.filter_map
             (fun r ->
               if not (List.mem (row_name r) targets) then Some r
               else begin
                 hit := row_name r :: !hit;
                 if value = "delete" then None else Some (set r)
               end)
             rows) )
    | kv -> kv
  in
  let doc = match fixture with Json.Obj fs -> Json.Obj (List.map field fs) | j -> j in
  List.iter
    (fun t -> if not (List.mem t !hit) then fail "case row %S is not in the fixture" t)
    targets;
  Json.to_string doc

let () =
  if Array.length Sys.argv <> 4 then fail "usage: CHECK_BENCH_EXE FIXTURE CASES";
  let exe = Sys.argv.(1) in
  let base = read Sys.argv.(2) in
  let fixture =
    match Json.parse base with Ok j -> j | Error e -> fail "%s" (Json.error_to_string e)
  in
  (match check exe base with
  | 0, _ -> ()
  | c, msg -> fail "the fixture itself fails (exit %d):\n%s" c msg);
  let cases =
    read Sys.argv.(3) |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "" && l.[0] <> '#')
  in
  List.iter
    (fun line ->
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | [ gate; rows; value ] -> (
        let targets = String.split_on_char ',' rows in
        match check exe (edit fixture targets value) with
        | 1, msg when contains ~sub:("check_bench: " ^ gate ^ ":") msg -> ()
        | c, msg ->
          fail "case %S: exit %d, expected 1 naming %s; stderr:\n%s" line c gate msg)
      | _ -> fail "malformed case line %S" line)
    cases;
  Printf.printf "check_bench self-test: fixture passes, %d cases fail their gate\n"
    (List.length cases)
