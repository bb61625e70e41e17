(** Adversarial-corpus experiment: run the full inference pipeline over
    every named hostile world in {!Topogen.Corpus} and compare link and
    router accuracy against each scenario's recorded floor. The bench
    harness lands one row per scenario in BENCH.json, where
    [check_bench] fails the build on any floor violation. *)

type row = {
  name : string;
  target : string;  (** heuristic or subsystem the scenario attacks *)
  links : Bdrmap.Validate.summary;
  routers : Bdrmap.Validate.summary;
  link_floor : float;
  router_floor : float;
  coverage_pct : float;
  probes : int;
}

(** [run ?scale ()] runs every corpus scenario at [scale]
    (default 0.15), in registry order. *)
val run : ?scale:float -> unit -> row list

val print : Format.formatter -> row list -> unit
