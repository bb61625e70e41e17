(** Experiment RB1 — robustness of border inference under measurement
    impairments (§4, §5.4). One small-access world is probed at a sweep
    of fault intensities ({!Topogen.Scenario.impairment}): ICMP token
    buckets, probe/reply loss, routers going dark mid-run, and flapping
    interdomain links. Each row reports link and router accuracy against
    ground truth, neighbor coverage, and the probe overhead the retry
    ladder pays relative to the unimpaired baseline. Level 0 is the
    exact default pipeline on a fault-free engine. *)

type row = {
  intensity : float;  (** impairment knob in [0, 1] *)
  links : Bdrmap.Validate.summary;
  routers : Bdrmap.Validate.summary;
  coverage_pct : float;  (** BGP neighbor coverage, Table-1 style *)
  probes : int;
  overhead_pct : float;  (** probes vs the first level, percent *)
  faults : Probesim.Fault.stats;
}

val run : ?scale:float -> ?levels:float list -> unit -> row list
val print : Format.formatter -> row list -> unit
