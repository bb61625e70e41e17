(* Percentiles with a support rule: a percentile is only reported when
   at least ten samples lie beyond it, so a lower decile needs 100
   samples and a p99 needs 1000. Below that the estimate is refused
   rather than interpolated from a handful of points. *)

type error = Too_few of { q : float; n : int; need : int }

let error_label (Too_few { q; n; need }) =
  Printf.sprintf "quantile %g needs %d samples, got %d" q need n

(* Samples needed so that at least ten lie beyond quantile [q]. *)
let need q =
  let tail = Float.min q (1.0 -. q) in
  if tail <= 0.0 then max_int
  else int_of_float (Float.ceil ((10.0 /. tail) -. 1e-6))

(* Linear interpolation between order statistics (Hyndman-Fan type 7,
   numpy's default) over an already sorted array. *)
let interpolate sorted q =
  let n = Array.length sorted in
  let h = q *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = min (n - 1) (lo + 1) in
  let frac = h -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let quantile q xs =
  let n = Array.length xs in
  if q < 0.0 || q > 1.0 || Float.is_nan q then invalid_arg "Quant.quantile"
  else if n < need q then Error (Too_few { q; n; need = need q })
  else Ok (interpolate (sorted xs) q)

let median = quantile 0.5
let p90 = quantile 0.9
let p99 = quantile 0.99

(* The best of a handful of runs of a slow op: not a percentile, so no
   support rule, only a non-empty sample. *)
let minimum xs =
  if Array.length xs = 0 then invalid_arg "Quant.minimum: no samples"
  else Array.fold_left Float.min infinity xs

(* The middle of a few repeats of a deterministic step (set-up), where
   the repeats exist to outvote a slow phase, not to estimate a
   distribution. *)
let middle xs =
  if Array.length xs = 0 then invalid_arg "Quant.middle: no samples"
  else interpolate (sorted xs) 0.5
