(* Run-to-run comparison over the two machine-readable artifacts the
   system emits: manifest.json (per-run) and BENCH.json (per-bench).
   Both read into one row shape that carries its own unit and its own
   direction, so the diff never has to guess what a number is from its
   name. A regression is a scriptable build failure: `bdrmap obs diff A
   B` exits nonzero and names the offending row. *)

type better = Lower | Higher | Exact

let better_label = function Lower -> "lower" | Higher -> "higher" | Exact -> "exact"

let better_of_label = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | "exact" -> Some Exact
  | _ -> None

type row = {
  workload : string;
  layer : string;
  metric : string;
  unit_ : string;
  better : better;
  value : float;
  spread : float;
}

let row_name r =
  String.concat "." (List.filter (( <> ) "") [ r.workload; r.layer; r.metric ])

let make workload layer metric unit_ better value =
  { workload; layer; metric; unit_; better; value; spread = 0.0 }

let stage_row ~stage ~field value =
  let row unit_ better = Some (make "stage" stage field unit_ better value) in
  match field with
  | "count" -> row "count" Exact
  | "wall_s" -> row "s" Lower
  | "sim_s" -> row "s" Exact
  | "gc_minor_words" | "gc_major_words" -> row "words" Lower
  | "gc_compactions" -> row "count" Lower
  | _ -> None

let stage_rows (st : Manifest.stage) =
  List.filter_map
    (fun (field, v) -> stage_row ~stage:st.Manifest.st_name ~field v)
    [ ("count", float_of_int st.Manifest.st_count);
      ("wall_s", st.Manifest.st_wall_s);
      ("sim_s", st.Manifest.st_sim_s);
      ("gc_minor_words", float_of_int st.Manifest.st_minor_words);
      ("gc_major_words", float_of_int st.Manifest.st_major_words);
      ("gc_compactions", float_of_int st.Manifest.st_compactions) ]

(* The query server's request counters and latency histogram count what
   a timed load window admitted; every other registry metric is a pure
   function of the configuration. *)
let metric_row ~name ~field value =
  if String.starts_with ~prefix:"stage." name then None
  else
    let unit_, better =
      match (name, field) with
      | ("serve.requests_total" | "serve.queries_total"), _
      | "serve.request_seconds", "count" ->
        ("count", Higher)
      | "serve.request_seconds", _ -> ("s", Lower)
      | _, ("value" | "count") -> ("count", Exact)
      | _ -> ("sample", Exact)
    in
    Some (make "metric" name field unit_ better value)

let metric_rows name v =
  let cols =
    match v with
    | Metrics.Counter n -> [ ("value", float_of_int n) ]
    | Metrics.Gauge g -> [ ("value", g) ]
    | Metrics.Histogram h -> (
      let base =
        [ ("count", float_of_int h.Metrics.h_count); ("sum", h.Metrics.h_sum) ]
      in
      match Summary.of_hist h with
      | None -> base
      | Some q ->
        base
        @ List.filter_map
            (fun (k, v) -> Option.map (fun v -> (k, v)) v)
            [ ("p50", q.Summary.p50); ("p90", q.Summary.p90); ("p99", q.Summary.p99);
              ("max", Some q.Summary.max_est) ])
  in
  List.filter_map (fun (field, v) -> metric_row ~name ~field v) cols

(* ------------------------------------------------------------------ *)
(* BENCH.json.                                                        *)

let bench_schema = "bdrmap-bench/11"

(* Integral values print as integers, so counts keep every digit. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
  else Json.Float v

let render_bench ~scale ~domains rows =
  let row r =
    Json.to_string
      (Json.Obj
         [ ("workload", Json.String r.workload); ("layer", Json.String r.layer);
           ("metric", Json.String r.metric); ("unit", Json.String r.unit_);
           ("better", Json.String (better_label r.better)); ("value", num r.value);
           ("spread", num r.spread) ])
  in
  Printf.sprintf "{\"schema\": %s, \"scale\": %g, \"domains\": %d, \"rows\": [\n%s\n]}\n"
    (Json.to_string (Json.String bench_schema))
    scale domains
    (String.concat ",\n" (List.map (fun r -> "  " ^ row r) rows))

(* ------------------------------------------------------------------ *)
(* Reading.                                                           *)

type kind = Manifest | Bench

let kind_label = function Manifest -> "manifest" | Bench -> "bench"

type run = { kind : kind; schema : string; rows : row list }

type error =
  | Io of string
  | Malformed of string
  | No_schema
  | Unsupported_schema of string

let error_to_string = function
  | Io m -> m
  | Malformed m -> "malformed: " ^ m
  | No_schema -> "no \"schema\" field: not a manifest or BENCH.json"
  | Unsupported_schema s ->
    Printf.sprintf "unsupported schema %S (reads bdrmap-manifest/2 and %s)" s
      bench_schema

exception Bad of string

let field json k conv =
  match Option.bind (Json.member k json) conv with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "field %S missing or mistyped" k))

(* Top-level run parameters: exact rows under the "run" workload. *)
let top_rows json keys =
  List.filter_map
    (fun k ->
      Option.map
        (fun v -> make "run" "" k "count" Exact v)
        (Option.bind (Json.member k json) Json.to_float))
    keys

let bench_rows json =
  List.mapi
    (fun i r ->
      try
        { workload = field r "workload" Json.to_str;
          layer = field r "layer" Json.to_str;
          metric = field r "metric" Json.to_str;
          unit_ = field r "unit" Json.to_str;
          better =
            field r "better" (fun j -> Option.bind (Json.to_str j) better_of_label);
          value = field r "value" Json.to_float;
          spread = field r "spread" Json.to_float }
      with Bad m -> raise (Bad (Printf.sprintf "row %d: %s" i m)))
    (field json "rows" Json.to_list)

let manifest_rows json =
  let obj k = Option.value ~default:[] (Option.bind (Json.member k json) Json.to_obj) in
  let nums =
    List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
  in
  let stages =
    List.concat_map
      (fun (stage, v) ->
        List.filter_map
          (fun (field, f) -> stage_row ~stage ~field f)
          (nums (Option.value ~default:[] (Json.to_obj v))))
      (obj "stages")
  in
  let metrics =
    List.concat_map
      (fun (name, v) ->
        match v with
        | Json.Obj cols ->
          List.filter_map (fun (field, f) -> metric_row ~name ~field f) (nums cols)
        | v ->
          Option.to_list
            (Option.bind (Json.to_float v) (fun f -> metric_row ~name ~field:"value" f)))
      (obj "metrics")
  in
  top_rows json [ "scale"; "jobs"; "trace_records" ] @ stages @ metrics

let check_unique rows =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let n = row_name r in
      if Hashtbl.mem seen n then raise (Bad (Printf.sprintf "duplicate row %S" n));
      Hashtbl.add seen n ())
    rows;
  rows

let of_json json =
  match Option.bind (Json.member "schema" json) Json.to_str with
  | None -> Error No_schema
  | Some schema -> (
    let read kind rows = Ok { kind; schema; rows = check_unique (rows json) } in
    try
      if schema = "bdrmap-manifest/2" then read Manifest manifest_rows
      else if schema = bench_schema then
        read Bench (fun j -> top_rows j [ "scale"; "domains" ] @ bench_rows j)
      else Error (Unsupported_schema schema)
    with Bad m -> Error (Malformed m))

let of_string s =
  match Json.parse s with
  | Error e -> Error (Malformed (Json.error_to_string e))
  | Ok json -> of_json json

let of_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* The diff.                                                          *)

type verdict = Regression | Improvement | Changed | Missing

let verdict_label = function
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Changed -> "CHANGED"
  | Missing -> "MISSING"

type finding = { f_name : string; f_a : float; f_b : float; f_verdict : verdict }

let failing f = match f.f_verdict with
  | Regression | Changed | Missing -> true
  | Improvement -> false

(* Absolute slack, per unit, under which a ratio blow-up is timer or
   scheduler noise rather than a perf bug (a 1us stage doubling to 2us,
   a GC delta of a few thousand words). *)
let unit_slack = function
  | "s" -> 0.005
  | "ns" -> 100.0
  | "us" -> 25.0
  | "words" -> 10_000.0
  | "words/query" -> 2.0
  | "1/s" -> 50_000.0
  | _ -> 0.0

let diff ?(wall_ratio = 1.5) ?(rel = 0.0) a b =
  let index = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace index (row_name r) r) b.rows;
  List.filter_map
    (fun ra ->
      let f_name = row_name ra and av = ra.value in
      let finding f_b f_verdict = Some { f_name; f_a = av; f_b; f_verdict } in
      match Hashtbl.find_opt index f_name with
      | None -> finding nan Missing
      | Some rb -> (
        let bv = rb.value in
        match ra.better with
        | Exact ->
          if Float.abs (bv -. av) > rel *. Float.max (Float.abs av) (Float.abs bv)
          then finding bv Changed
          else None
        | Lower | Higher ->
          (* [worse] is the side that is bad when it is bigger. *)
          let worse, base = if ra.better = Lower then (bv, av) else (av, bv) in
          let slack = unit_slack ra.unit_ +. Float.max ra.spread rb.spread in
          if worse > (base *. wall_ratio) +. slack then finding bv Regression
          else if base > (worse *. wall_ratio) +. slack then finding bv Improvement
          else None))
    a.rows

let regressions findings = List.filter failing findings

let finding_to_string f =
  Printf.sprintf "%-11s %-44s %g -> %g%s" (verdict_label f.f_verdict) f.f_name f.f_a
    f.f_b
    (if f.f_a > 0.0 && not (Float.is_nan f.f_b) then
       Printf.sprintf " (%.2fx)" (f.f_b /. f.f_a)
     else "")
