(** Probing-cost model (§5.3): bdrmap's run-time is probe-count divided by
    the probing rate. The driver records per-phase probe counts here so
    experiments can report run-times and the stop-set ablation. *)

type phase = Traceroute | Alias | Prefixscan

type t

val create : pps:float -> t
val note : t -> phase -> int -> unit
val count : t -> phase -> int
val total : t -> int

(** [duration_s t] is the simulated wall-clock spent probing. *)
val duration_s : t -> float

val duration_h : t -> float
val pps : t -> float
val pp : Format.formatter -> t -> unit

(** [encode w t] writes the rate and the per-phase counts. *)
val encode : Store.Codec.writer -> t -> unit

val decode : Store.Codec.reader -> t
