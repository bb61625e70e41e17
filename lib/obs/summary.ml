(* Percentile estimation over the fixed log-bucket layout of
   [Metrics.observe]. Buckets are quarter-decade, so the upper edge of
   a bucket is its lower bound times 10^(1/4); within a bucket the mass
   is assumed uniform and the percentile position interpolated
   linearly. That bounds the estimation error by the bucket width
   (~78% relative), which is exactly the resolution the recording side
   chose — no extra state is needed to read p50/p90/p99 back out of
   any already-collected histogram.

   Two refusals keep the estimate honest. A quantile is only reported
   when at least ten samples lie beyond it (so p50 needs 20 samples,
   p90 100 and p99 1000), and a rank that falls in the underflow bucket
   [0, 1e-9) is below the clock's resolution: there is nothing to
   interpolate from, so no value is made up. *)

type quantiles = {
  p50 : float option;
  p90 : float option;
  p99 : float option;
  max_est : float;
}

let bucket_width = 10.0 ** 0.25

(* Upper edge of the bucket whose lower bound is [lo]. Bucket 0 (the
   underflow bucket) spans [0, 1e-9). *)
let bucket_upper lo = if lo <= 0.0 then 1e-9 else lo *. bucket_width

let support q =
  let tail = Float.min q (1.0 -. q) in
  if tail <= 0.0 then max_int
  else int_of_float (Float.ceil ((10.0 /. tail) -. 1e-6))

let percentile_of_buckets ~count buckets q =
  (* A positive [count] with all-zero bucket populations is an
     inconsistent histogram (e.g. hand-built or truncated on re-parse);
     without this guard the walk would fall off the end and report the
     last bucket's edge as every percentile. *)
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
  if count <= 0 || total <= 0 || count < support q then None
  else begin
    let rank = q *. float_of_int count in
    let estimate lo frac =
      if lo <= 0.0 then None else Some (lo +. ((bucket_upper lo -. lo) *. frac))
    in
    let rec walk seen = function
      | [] ->
        (* rank = count lands exactly on the end of the last bucket. *)
        let lo, _ = List.nth buckets (List.length buckets - 1) in
        estimate lo 1.0
      | (lo, n) :: rest ->
        let seen' = seen +. float_of_int n in
        if seen' >= rank && n > 0 then
          estimate lo (Float.max 0.0 ((rank -. seen) /. float_of_int n))
        else walk seen' rest
    in
    walk 0.0 buckets
  end

let max_of_buckets buckets =
  List.fold_left (fun acc (lo, n) -> if n > 0 then bucket_upper lo else acc) 0.0 buckets

let quantiles_of_buckets ~count buckets =
  if count <= 0 || List.for_all (fun (_, n) -> n <= 0) buckets then None
  else
    let p = percentile_of_buckets ~count buckets in
    Some { p50 = p 0.50; p90 = p 0.90; p99 = p 0.99; max_est = max_of_buckets buckets }

let of_hist (h : Metrics.histogram) =
  quantiles_of_buckets ~count:h.Metrics.h_count h.Metrics.h_buckets
