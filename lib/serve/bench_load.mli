(** Load generator for the query server: spins a {!Server} up on its
    own domain over a throwaway socket, drives batched owner queries
    from this domain through {!Client.owner_batch_into}, and reports
    sustained throughput, per-frame round-trip latency quantiles (from
    a local copy of the {!Obs.Metrics} log-bucket layout) and the
    serving domain's steady-state minor-GC words per query (bracketed
    by two {!Protocol.op_gcstat} probes, warmup excluded). *)

type result = {
  batch : int;  (** owner queries per frame *)
  queries : int;  (** total queries in the timed window *)
  wall_s : float;
  qps : float;
  rtt_p50_us : float option;
      (** per-frame round-trip, microseconds; [None] when the window's
          frames do not support the quantile ({!Obs.Summary}) *)
  rtt_p99_us : float option;
  minor_words_per_query : float;
      (** serving-domain minor words allocated per query in steady
          state — the zero-alloc claim, measured not asserted *)
}

(** [run ?batch ?seconds ?warmup_frames qmap] measures one
    configuration (defaults: batch 512, 0.5 s timed window, 64 warmup
    frames). *)
val run : ?batch:int -> ?seconds:float -> ?warmup_frames:int -> Qmap.t -> result

val print : Format.formatter -> result -> unit
