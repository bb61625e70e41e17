(** The one duration clock of the program: [CLOCK_MONOTONIC] in
    nanoseconds, through bechamel's allocation-free stub. Wall-clock
    date ([Unix.gettimeofday]) is kept only for timestamps such as a
    manifest's [created_unix]; every duration is a difference of two
    {!now_ns} reads. *)

(** [now_ns ()] is the monotonic clock in nanoseconds since an
    unspecified origin. Allocates nothing. *)
val now_ns : unit -> int

(** [seconds_since t0] is the time elapsed since the {!now_ns} reading
    [t0], in seconds. *)
val seconds_since : int -> float
