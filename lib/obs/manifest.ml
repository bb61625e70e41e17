let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* stage.<name>.* counter groups, one record per stage. *)
type stage = {
  st_name : string;
  st_count : int;
  st_wall_s : float;
  st_sim_s : float;
  st_minor_words : int;
  st_major_words : int;
  st_compactions : int;
}

let stages metrics =
  let tbl : (string, stage) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter n -> (
        match String.split_on_char '.' name with
        | [ "stage"; stage; field ] ->
          let st =
            Option.value
              ~default:
                { st_name = stage; st_count = 0; st_wall_s = 0.0; st_sim_s = 0.0;
                  st_minor_words = 0; st_major_words = 0; st_compactions = 0 }
              (Hashtbl.find_opt tbl stage)
          in
          let st =
            match field with
            | "count" -> { st with st_count = st.st_count + n }
            | "wall_ns" ->
              { st with st_wall_s = st.st_wall_s +. (float_of_int n /. 1e9) }
            | "sim_us" ->
              { st with st_sim_s = st.st_sim_s +. (float_of_int n /. 1e6) }
            | "gc_minor_words" -> { st with st_minor_words = st.st_minor_words + n }
            | "gc_major_words" -> { st with st_major_words = st.st_major_words + n }
            | "gc_compactions" -> { st with st_compactions = st.st_compactions + n }
            | _ -> st
          in
          Hashtbl.replace tbl stage st
        | _ -> ())
      | _ -> ())
    metrics;
  Hashtbl.fold (fun _ st acc -> st :: acc) tbl []
  |> List.sort (fun a b -> String.compare a.st_name b.st_name)

let render_value = function
  | Metrics.Counter n -> string_of_int n
  | Metrics.Histogram h ->
    (* Percentiles are derived, not recorded: Summary reads them out of
       the same fixed log buckets, so a histogram in the manifest carries
       each p50/p90/p99 that its samples support, with no recording-side
       state. *)
    let quantiles =
      match Summary.of_hist h with
      | None -> ""
      | Some q ->
        let col k = function
          | Some v -> Printf.sprintf ", \"%s\": %g" k v
          | None -> ""
        in
        col "p50" q.Summary.p50 ^ col "p90" q.Summary.p90 ^ col "p99" q.Summary.p99
        ^ Printf.sprintf ", \"max\": %g" q.Summary.max_est
    in
    Printf.sprintf "{\"sum\": %g, \"count\": %d%s, \"buckets\": [%s]}"
      h.Metrics.h_sum h.Metrics.h_count quantiles
      (String.concat ", "
         (List.map
            (fun (lo, n) -> Printf.sprintf "[%g, %d]" lo n)
            h.Metrics.h_buckets))

let render ~command ~scale ~jobs ?seed ?config ?(extra = []) () =
  let metrics = Metrics.collect () in
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "{\n  \"schema\": \"bdrmap-manifest/2\",\n";
  addf "  \"command\": \"%s\",\n" (escape command);
  (match seed with
  | Some s -> addf "  \"seed\": %d,\n" s
  | None -> addf "  \"seed\": null,\n");
  addf "  \"scale\": %g,\n" scale;
  addf "  \"jobs\": %d,\n" jobs;
  (match config with
  | Some c -> addf "  \"config_hash\": \"%s\",\n" (Digest.to_hex (Digest.string c))
  | None -> addf "  \"config_hash\": null,\n");
  List.iter (fun (k, v) -> addf "  \"%s\": \"%s\",\n" (escape k) (escape v)) extra;
  addf "  \"stages\": {\n%s\n  },\n"
    (String.concat ",\n"
       (List.map
          (fun st ->
            Printf.sprintf
              "    \"%s\": {\"count\": %d, \"wall_s\": %.6f, \"sim_s\": %.6f, \
               \"gc_minor_words\": %d, \"gc_major_words\": %d, \
               \"gc_compactions\": %d}"
              (escape st.st_name) st.st_count st.st_wall_s st.st_sim_s
              st.st_minor_words st.st_major_words st.st_compactions)
          (stages metrics)));
  addf "  \"metrics\": {\n%s\n  },\n"
    (String.concat ",\n"
       (List.map
          (fun (name, v) -> Printf.sprintf "    \"%s\": %s" (escape name) (render_value v))
          metrics));
  addf "  \"trace_records\": %d,\n" (Span.records_emitted ());
  addf "  \"created_unix\": %.0f\n}\n" (Unix.gettimeofday ());
  Buffer.contents buf

(* Atomic and exception-safe: the manifest is observed either complete
   or not at all, and the channel never leaks — a command that dies
   while writing leaves no torn manifest behind. *)
let write ~path ~command ~scale ~jobs ?seed ?config ?extra () =
  let s = render ~command ~scale ~jobs ?seed ?config ?extra () in
  let tmp = path ^ ".tmp" in
  (try
     let oc = open_out tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_string oc s)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path
