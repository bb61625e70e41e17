(* OpenMetrics / Prometheus text exposition of a run manifest: the
   bridge between the per-run JSON artifacts and a scrape-based
   monitoring stack (and the future query-service /metrics endpoint).
   Counters keep their totals under a `_total` suffix, stage timings
   become labelled gauges, and the fixed log-bucket histograms convert
   to the cumulative `le`-labelled form Prometheus expects. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let escape_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let num = Printf.sprintf "%g"

let of_manifest json =
  match Option.bind (Json.member "schema" json) Json.to_str with
  | None -> Error "no \"schema\" field: not a manifest"
  | Some schema ->
    let buf = Buffer.create 1024 in
    let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let command =
      Option.value ~default:""
        (Option.bind (Json.member "command" json) Json.to_str)
    in
    addf "# TYPE bdrmap_run_info gauge\n";
    addf "bdrmap_run_info{schema=\"%s\",command=\"%s\"} 1\n" (escape_label schema)
      (escape_label command);
    List.iter
      (fun key ->
        match Option.bind (Json.member key json) Json.to_float with
        | Some v ->
          addf "# TYPE bdrmap_run_%s gauge\nbdrmap_run_%s %s\n" key key (num v)
        | None -> ())
      [ "scale"; "jobs"; "trace_records" ];
    (* Per-stage timings and GC deltas as labelled gauges. *)
    (match Option.bind (Json.member "stages" json) Json.to_obj with
    | Some stages when stages <> [] ->
      let fields =
        [ "count"; "wall_s"; "sim_s"; "gc_minor_words"; "gc_major_words";
          "gc_compactions" ]
      in
      List.iter
        (fun field ->
          let rows =
            List.filter_map
              (fun (stage, v) ->
                Option.map
                  (fun f -> (stage, f))
                  (Option.bind (Json.member field v) Json.to_float))
              stages
          in
          if rows <> [] then begin
            addf "# TYPE bdrmap_stage_%s gauge\n" field;
            List.iter
              (fun (stage, f) ->
                addf "bdrmap_stage_%s{stage=\"%s\"} %s\n" field
                  (escape_label stage) (num f))
              rows
          end)
        fields
    | _ -> ());
    (* Metric totals: JSON ints expose as counters, floats as gauges,
       histogram objects as cumulative le-bucketed histograms. *)
    (match Option.bind (Json.member "metrics" json) Json.to_obj with
    | Some metrics ->
      List.iter
        (fun (name, v) ->
          let mname = "bdrmap_" ^ sanitize name in
          match v with
          | Json.Int i ->
            addf "# TYPE %s counter\n%s_total %d\n" mname mname i
          | Json.Float f -> addf "# TYPE %s gauge\n%s %s\n" mname mname (num f)
          | Json.Obj fields ->
            let sum =
              Option.value ~default:0.0
                (Option.bind (List.assoc_opt "sum" fields) Json.to_float)
            in
            let count =
              Option.value ~default:0
                (Option.bind (List.assoc_opt "count" fields) Json.to_int)
            in
            let buckets =
              match Option.bind (List.assoc_opt "buckets" fields) Json.to_list with
              | Some items ->
                List.filter_map
                  (fun item ->
                    match Json.to_list item with
                    | Some [ lo; n ] -> (
                      match (Json.to_float lo, Json.to_int n) with
                      | Some lo, Some n -> Some (lo, n)
                      | _ -> None)
                    | _ -> None)
                  items
              | None -> []
            in
            addf "# TYPE %s histogram\n" mname;
            let cum = ref 0 in
            List.iter
              (fun (lo, n) ->
                cum := !cum + n;
                addf "%s_bucket{le=\"%s\"} %d\n" mname
                  (num (Summary.bucket_upper lo))
                  !cum)
              buckets;
            addf "%s_bucket{le=\"+Inf\"} %d\n" mname count;
            addf "%s_sum %s\n" mname (num sum);
            addf "%s_count %d\n" mname count
          | _ -> ())
        metrics
    | None -> ());
    addf "# EOF\n";
    Ok (Buffer.contents buf)

let of_string s =
  match Json.parse s with
  | Error e -> Error (Json.error_to_string e)
  | Ok json -> of_manifest json
