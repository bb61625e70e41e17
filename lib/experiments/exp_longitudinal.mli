(** Experiment LG1 — border-map drift under temporal churn (§6). One
    small-access world evolves through {!Topogen.Evolve.advance} epochs
    (interdomain link add/remove, new customers, depeerings, prefix
    aggregation/deaggregation); each epoch the routing state is
    incrementally patched ({!Routing.Bgp.refreeze} +
    {!Routing.Forwarding.patch}, validated against a from-scratch
    freeze) and inference re-runs from the first vantage point. Each
    row reports the applied event mix, how many prefixes the
    incremental path re-propagated, inferred border count, link and
    router accuracy against the evolved ground truth, and the drift of
    the inferred border set relative to the previous epoch. *)

type row = {
  epoch : int;  (** 0 is the unevolved world *)
  time : float;  (** simulated clock at end of epoch, seconds *)
  events : (Topogen.Evolve.kind * int) list;
      (** nonzero per-class event counts, in {!Topogen.Evolve.all_kinds}
          order *)
  dirty : int;  (** prefixes re-propagated (0 at epoch 0) *)
  total_pfx : int;  (** prefixes in the epoch's snapshot *)
  borders : int;  (** inferred interdomain border links *)
  links : Bdrmap.Validate.summary;
  routers : Bdrmap.Validate.summary;
  drift_pct : float;
      (** multiset symmetric difference of inferred border-neighbor
          ASNs vs the previous epoch, as a percentage of the union
          (0 at epoch 0) *)
}

val run :
  ?scale:float -> ?schedule:Topogen.Evolve.schedule -> unit -> row list

val print : Format.formatter -> row list -> unit
