(** OpenMetrics / Prometheus text exposition of a run manifest.

    Converts the [manifest.json] written by {!Manifest} into the
    scrape-ready text format: run metadata as an info gauge, per-stage
    timings and GC deltas as [stage]-labelled gauges, counters under a
    [_total] suffix, and the fixed log-bucket histograms as cumulative
    [le]-labelled Prometheus histograms (bucket lower bounds become the
    conventional inclusive upper edges). The output ends with the
    OpenMetrics [# EOF] terminator. *)

val of_manifest : Json.t -> (string, string) result
val of_string : string -> (string, string) result
