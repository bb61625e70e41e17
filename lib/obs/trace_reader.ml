type record = { kind : string; fields : (string * Json.t) list }

type err =
  | Garbage of string
  | Not_object
  | Missing_kind

type error = { line : int; err : err }

let err_label = function
  | Garbage reason -> "garbage: " ^ reason
  | Not_object -> "not a JSON object"
  | Missing_kind -> "record has no \"type\" field"

let error_to_string e = Printf.sprintf "trace line %d: %s" e.line (err_label e.err)

type t = { records : record list; truncated : bool }

(* Volatile fields: wall-clock and GC deltas change run to run even for
   a fixed seed; everything else in a record is deterministic. The
   reader owns this classification so fixtures and diffs never depend
   on where the emitter put a field. *)
let volatile_field name =
  name = "wall_ns"
  || (String.length name >= 3 && String.sub name 0 3 = "gc_")

let parse_line line =
  match Json.parse line with
  | Error e -> Error (Garbage (Json.error_to_string e))
  | Ok (Json.Obj fields) -> (
    match List.assoc_opt "type" fields with
    | Some (Json.String kind) ->
      Ok { kind; fields = List.filter (fun (k, _) -> k <> "type") fields }
    | Some _ | None -> Error Missing_kind)
  | Ok _ -> Error Not_object

let skippable line =
  line = "" || line.[0] = '#'
  || String.for_all (function ' ' | '\t' | '\r' -> true | _ -> false) line

(* A malformed FINAL line is the signature of a crashed run (the sink
   died mid-record), so it is dropped and reported through
   [truncated]; malformed interior lines are hard errors. *)
let of_lines lines =
  let numbered =
    List.filteri (fun _ _ -> true) lines
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> not (skippable l))
  in
  let last = match List.rev numbered with [] -> -1 | (n, _) :: _ -> n in
  let rec go acc = function
    | [] -> Ok { records = List.rev acc; truncated = false }
    | (n, l) :: rest -> (
      match parse_line l with
      | Ok r -> go (r :: acc) rest
      | Error e ->
        if n = last then Ok { records = List.rev acc; truncated = true }
        else Error { line = n; err = e })
  in
  go [] numbered

let render r = Json.to_string (Json.Obj (("type", Json.String r.kind) :: r.fields))

let canonical r =
  render { r with fields = List.filter (fun (k, _) -> not (volatile_field k)) r.fields }

(* Typed view of a span record. Missing GC fields (pre-PR-8 traces)
   default to zero, so old traces still read. *)
type span = {
  stage : string;
  vp : string option;
  seq : int;
  sim_start_s : float;
  sim_end_s : float;
  gc_minor_words : int;
  gc_major_words : int;
  gc_compactions : int;
  wall_ns : int;
}

let field_int r name d =
  match List.assoc_opt name r.fields with
  | Some v -> Option.value ~default:d (Json.to_int v)
  | None -> d

let field_float r name d =
  match List.assoc_opt name r.fields with
  | Some v -> Option.value ~default:d (Json.to_float v)
  | None -> d

let span_of r =
  if r.kind <> "span" then None
  else
    match List.assoc_opt "stage" r.fields with
    | Some (Json.String stage) ->
      Some
        {
          stage;
          vp =
            Option.bind (List.assoc_opt "vp" r.fields) Json.to_str;
          seq = field_int r "seq" 0;
          sim_start_s = field_float r "sim_start_s" 0.0;
          sim_end_s = field_float r "sim_end_s" 0.0;
          gc_minor_words = field_int r "gc_minor_words" 0;
          gc_major_words = field_int r "gc_major_words" 0;
          gc_compactions = field_int r "gc_compactions" 0;
          wall_ns = field_int r "wall_ns" 0;
        }
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-stage call tree.                                               *)

type stage_stat = {
  ss_stage : string;
  ss_count : int;
  ss_wall_ns : int;
  ss_sim_s : float;
  ss_minor_words : int;
  ss_major_words : int;
  ss_compactions : int;
}

type vp_group = { vg_vp : string option; vg_stages : stage_stat list }

type summary = {
  sm_vps : vp_group list;
  sm_fires : (string * int) list;
  sm_events : (string * int) list;
  sm_spans : int;
  sm_records : int;
  sm_truncated : bool;
}

(* Association-list accumulation keyed on first-seen order: traces are
   small relative to what produced them, and first-seen order is the
   deterministic emission order the golden fixtures pin. *)
let upsert key f xs =
  let rec go = function
    | [] -> [ (key, f None) ]
    | (k, v) :: rest when k = key -> (k, f (Some v)) :: rest
    | kv :: rest -> kv :: go rest
  in
  go xs

let summarize t =
  let vps = ref [] and fires = ref [] and events = ref [] and spans = ref 0 in
  List.iter
    (fun r ->
      match span_of r with
      | Some s ->
        incr spans;
        vps :=
          upsert s.vp
            (fun stages ->
              upsert s.stage
                (fun st ->
                  let st =
                    Option.value
                      ~default:
                        {
                          ss_stage = s.stage;
                          ss_count = 0;
                          ss_wall_ns = 0;
                          ss_sim_s = 0.0;
                          ss_minor_words = 0;
                          ss_major_words = 0;
                          ss_compactions = 0;
                        }
                      st
                  in
                  {
                    st with
                    ss_count = st.ss_count + 1;
                    ss_wall_ns = st.ss_wall_ns + s.wall_ns;
                    ss_sim_s = st.ss_sim_s +. (s.sim_end_s -. s.sim_start_s);
                    ss_minor_words = st.ss_minor_words + s.gc_minor_words;
                    ss_major_words = st.ss_major_words + s.gc_major_words;
                    ss_compactions = st.ss_compactions + s.gc_compactions;
                  })
                (Option.value ~default:[] stages))
            !vps
      | None ->
        events := upsert r.kind (fun n -> 1 + Option.value ~default:0 n) !events;
        if r.kind = "heuristic_fire" then
          match
            (List.assoc_opt "heuristic" r.fields, List.assoc_opt "count" r.fields)
          with
          | Some (Json.String h), Some n ->
            let n = Option.value ~default:0 (Json.to_int n) in
            fires := upsert h (fun m -> n + Option.value ~default:0 m) !fires
          | _ -> ())
    t.records;
  {
    sm_vps =
      List.map (fun (vp, stages) -> { vg_vp = vp; vg_stages = List.map snd stages }) !vps;
    sm_fires = !fires;
    sm_events = !events;
    sm_spans = !spans;
    sm_records = List.length t.records;
    sm_truncated = t.truncated;
  }

(* ------------------------------------------------------------------ *)
(* Report rendering (the `obs report` body).                          *)

let report_lines ?(volatile = true) sm =
  let out = ref [] in
  let addf fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  addf "trace: %d records (%d spans)%s" sm.sm_records sm.sm_spans
    (if sm.sm_truncated then ", TRUNCATED TAIL (crashed run?)" else "");
  let header =
    if volatile then
      Printf.sprintf "  %-12s %5s %12s %12s %12s %10s %5s" "stage" "count" "sim_s"
        "wall_ms" "minor_w" "major_w" "cmpct"
    else Printf.sprintf "  %-12s %5s %12s" "stage" "count" "sim_s"
  in
  List.iter
    (fun vg ->
      addf "vp %s" (Option.value ~default:"(none)" vg.vg_vp);
      addf "%s" header;
      List.iter
        (fun st ->
          if volatile then
            addf "  %-12s %5d %12.3f %12.3f %12d %10d %5d" st.ss_stage st.ss_count
              st.ss_sim_s
              (float_of_int st.ss_wall_ns /. 1e6)
              st.ss_minor_words st.ss_major_words st.ss_compactions
          else addf "  %-12s %5d %12.3f" st.ss_stage st.ss_count st.ss_sim_s)
        vg.vg_stages)
    sm.sm_vps;
  if sm.sm_fires <> [] then begin
    addf "heuristic fires";
    List.iter (fun (h, n) -> addf "  %-16s %5d" h n) sm.sm_fires
  end;
  if sm.sm_events <> [] then begin
    addf "events";
    List.iter (fun (k, n) -> addf "  %-16s %5d" k n) sm.sm_events
  end;
  List.rev !out
