(** Temporal churn over a generated world: a seeded, validated schedule
    of topology events applied on the simulated clock — the input side
    of the incremental re-freeze path ([Routing.Bgp.refreeze],
    [Routing.Forwarding.patch]).

    Every event preserves the two invariants the delta path depends on:
    new ASNs sort strictly above every existing ASN (the packed
    snapshot's interned axis only appends), and the internal topology
    of a pre-existing AS never changes (its planned IGP matrix stays exact —
    link events are interdomain and new routers belong to new ASes).

    The [Net.t] is mutated in place; previously built routing
    snapshots stay valid because they only read their own packed
    arrays. Functional world-record fields (relationships, delegations,
    as2org, primary exits) are rebuilt into the returned world. *)

open Netcore

(** Event classes, in the schedule's weighting order. *)
type kind =
  | Link_add  (** parallel interconnect between already-related ASes *)
  | Link_remove  (** retire one of >= 2 parallel interconnects *)
  | New_customer  (** fresh stub AS buying transit from the host *)
  | Depeer  (** drop a p2p relationship and all its links *)
  | Aggregate  (** two adjacent same-length prefixes -> their parent *)
  | Deaggregate  (** one prefix -> its two halves *)

val all_kinds : kind list
val kind_label : kind -> string

type event =
  | Added_link of { x : Asn.t; y : Asn.t; lid : int }
  | Removed_link of { x : Asn.t; y : Asn.t; lid : int }
  | Customer_joined of {
      asn : Asn.t;
      providers : Asn.Set.t;
      prefix : Prefix.t;
    }
  | Depeered of { x : Asn.t; y : Asn.t }
  | Aggregated of { asn : Asn.t; parent : Prefix.t; halves : Prefix.t * Prefix.t }
  | Deaggregated of {
      asn : Asn.t;
      parent : Prefix.t;
      halves : Prefix.t * Prefix.t;
    }

(** An applied event stamped with its simulated time (seconds). *)
type timed = { ev_time : float; ev : event }

val kind_of : event -> kind

(** [log_digest prev events] chains the event log into a hex digest for
    store keying. [log_digest prev [] = prev], so an unevolved world
    keys exactly as before (the zero-churn no-op guarantee). *)
val log_digest : string -> timed list -> string

type schedule = {
  ev_seed : int;
  ev_epochs : int;  (** evolution epochs after the initial freeze *)
  ev_batch : int;  (** events attempted per epoch *)
  ev_interval : float;  (** simulated seconds per epoch *)
  w_link_add : float;
  w_link_remove : float;
  w_new_customer : float;
  w_depeer : float;
  w_aggregate : float;
  w_deaggregate : float;
}

val default_schedule : schedule

(** Rejects schedules outside the driver's domain (negative counts,
    non-positive or non-finite interval, weights that are not finite
    non-negative reals), in {!Gen.validate_params}' fail-fast style. *)
val validate_schedule : schedule -> unit

(** [advance sched ~epoch w] applies epoch [epoch]'s batch ([epoch >=
    1]; epoch 0 is the unevolved world) and returns the evolved world
    with the applied events in order. Deterministic in
    [(sched.ev_seed, epoch, w)]; an event class with no eligible site
    falls through to the next class, so fewer than [ev_batch] events
    may apply. Convert the events with [Routing.Bgp.churn_of_events]
    to drive the incremental re-freeze. *)
val advance : schedule -> epoch:int -> Gen.world -> Gen.world * timed list

(** [force ~seed kind w] applies exactly one event of [kind] (bench
    isolation of a single event class); [None] when the world has no
    eligible site for it. *)
val force : seed:int -> kind -> Gen.world -> (Gen.world * timed) option
