(** Run-to-run regression diffing over the machine-readable artifacts:
    [manifest.json] and [BENCH.json].

    Both read into one typed {!row} list. A BENCH.json (schema
    {!bench_schema}) stores its rows verbatim; a manifest (schema
    [bdrmap-manifest/2]) keeps its own format, and the reader maps its
    stage fields by exact field name and its registry metrics through
    the one classifier the bench writer uses too ({!stage_rows},
    {!metric_rows}). A {!diff} then decides each row from its [better] and [unit]
    alone:

    - an [Exact] row is a pure function of the configuration and must
      match exactly (or within [rel], for cross-config diffs);
    - a [Lower] or [Higher] row regresses only when run B is worse than
      run A by the [wall_ratio] multiplier {e and} by the absolute slack
      of its unit plus the larger of the two rows' spreads, so identical
      or merely jittery runs never fail;
    - a row present in A but absent in B is {!Missing}: schema or
      coverage shrank.

    [Improvement] findings are informational; {!regressions} filters to
    the failing subset, which `bdrmap obs diff` turns into a nonzero
    exit code. *)

(** Stored in BENCH.json as ["lower"], ["higher"] or ["exact"]. *)
type better = Lower | Higher | Exact

type row = {
  workload : string;  (** what ran: [experiment], [churn], [serve], ... *)
  layer : string;  (** the part measured: a stage, scenario, churn class, ... *)
  metric : string;
  unit_ : string;  (** [s], [ns], [us], [words], [1/s], [count], [%], ... *)
  better : better;
  value : float;
  spread : float;
      (** quartile distance of the row's repeated samples; 0 for a row
          taken once *)
}

(** [row_name r] is [workload.layer.metric], empty parts skipped: the
    name a finding reports. *)
val row_name : row -> string

(** [stage_rows st] is the six fields of a {!Manifest.stage} ([count],
    [wall_s], [sim_s], [gc_minor_words], [gc_major_words],
    [gc_compactions]) as [stage.<name>.<field>] rows. *)
val stage_rows : Manifest.stage -> row list

(** [metric_rows name v] is every column of a collected registry metric
    as [metric.<name>.<column>] rows: [value] for a counter or gauge;
    [count], [sum], each supported percentile and [max] for a
    histogram. The query server's request counters and latency
    histogram depend on a timed load window and are [Lower]/[Higher];
    every other metric is [Exact]. [stage.*] metrics give no rows: the
    stage rows already carry them. *)
val metric_rows : string -> Metrics.value -> row list

(** [render_bench ~scale ~domains rows] is a BENCH.json document
    (schema [bdrmap-bench/11]): [scale], [domains] and one [rows]
    array, one row per line. *)
val render_bench : scale:float -> domains:int -> row list -> string

type kind = Manifest | Bench

val kind_label : kind -> string

type run = { kind : kind; schema : string; rows : row list }

type error =
  | Io of string  (** the file could not be read *)
  | Malformed of string  (** not JSON, or a row lacks or mistypes a field *)
  | No_schema
  | Unsupported_schema of string
      (** neither [bdrmap-manifest/2] nor [bdrmap-bench/11], e.g. an
          older [bdrmap-bench/10] file *)

val error_to_string : error -> string
val of_json : Json.t -> (run, error) result
val of_string : string -> (run, error) result
val of_file : string -> (run, error) result

type verdict = Regression | Improvement | Changed | Missing

val verdict_label : verdict -> string

type finding = { f_name : string; f_a : float; f_b : float; f_verdict : verdict }

(** [failing f] is true for [Regression], [Changed] and [Missing]. *)
val failing : finding -> bool

(** [diff ?wall_ratio ?rel a b] compares [b] against baseline [a].
    [wall_ratio] (default 1.5) is the multiplier for [Lower]/[Higher]
    rows; [rel] (default 0: exact) the relative tolerance for [Exact]
    rows. *)
val diff : ?wall_ratio:float -> ?rel:float -> run -> run -> finding list

val regressions : finding list -> finding list
val finding_to_string : finding -> string
