(** Percentile estimation from the fixed log-bucket histograms of
    {!Metrics}.

    Buckets are quarter-decade wide, so a percentile read back from a
    collected histogram is exact to within one bucket; within a bucket
    the mass is interpolated uniformly. This is the entire "summary"
    side of the metrics pipeline: any histogram — live from
    {!Metrics.collect}, or re-parsed out of a manifest — summarizes to
    p50/p90/p99/max with no recording-side changes.

    A percentile is refused ([None]) rather than made up in two cases:
    fewer than ten samples lie beyond it ({!support}), or its rank falls
    in the underflow bucket [\[0, 1e-9)], below the clock's
    resolution. *)

type quantiles = {
  p50 : float option;
  p90 : float option;
  p99 : float option;
  max_est : float;  (** upper edge of the highest non-empty bucket *)
}

(** [bucket_upper lo] is the upper edge of the bucket whose inclusive
    lower bound is [lo] (the underflow bucket's edge for [lo <= 0]). *)
val bucket_upper : float -> float

(** [support q] is the sample count the [q]-quantile needs so that at
    least ten samples lie beyond it: 20 for p50, 100 for p90, 1000 for
    p99. *)
val support : float -> int

(** [percentile_of_buckets ~count buckets q] estimates the [q]-quantile
    ([0..1], clamped) from [(lower_bound, count)] buckets in ascending
    order totalling [count] observations. [None] when the histogram
    carries no mass ([count <= 0] {e or} every bucket population is
    zero), when [count < support q], or when the quantile's rank falls
    in the underflow bucket (below resolution). *)
val percentile_of_buckets : count:int -> (float * int) list -> float -> float option

(** [None] iff the histogram carries no mass; each percentile inside is
    {!percentile_of_buckets}'s answer. *)
val quantiles_of_buckets : count:int -> (float * int) list -> quantiles option

(** [of_hist h] summarizes a collected histogram. [None] iff empty. *)
val of_hist : Metrics.histogram -> quantiles option
