(** Deterministic measurement-impairment model injected into {!Engine}.

    The simulator's world is ideal by default: every open router answers
    every probe. Real collection (§4, §5.4) fights ICMP rate limiting,
    lossy paths, routers that stop answering mid-run, and routing churn.
    This module models those pathologies as an overlay the engine
    consults on every probe and reply:

    - {b forward probe loss} and {b reply transit loss}: independent
      Bernoulli drops drawn from a dedicated RNG stream;
    - {b per-router ICMP rate limiting}: a token bucket (capacity
      [rl_burst], refill [rl_rate] tokens/s of simulated clock) on a
      deterministic subset of routers — the paper's §5.3 reason for
      pacing probes at 100pps;
    - {b dark quotas}: a deterministic subset of routers answers its
      first [dark_after] replies and then goes silent for the rest of
      the collection (operator shutoff / ACL insertion mid-run);
    - {b transient link failures}: interdomain links scheduled to fail
      at [fail_at] and recover at [recover_at] on the simulated clock,
      flapping forwarding mid-collection. Probes whose path crosses a
      dead link are dropped at the failed hop.

    Determinism rules: loss draws come from an RNG split off the world
    seed (never the engine's other streams); per-router subsets are pure
    hashes of (seed, router id), so they do not depend on probe order;
    bucket and quota state live in the per-engine {!state}, so parallel
    per-VP engines evolve identical fault behaviour whatever the domain
    count. A zero {!config} draws nothing and mutates nothing: the
    engine's output is byte-identical to a fault-free engine. *)

module Gen = Topogen.Gen

(** A scheduled outage of one link, in simulated seconds. *)
type failure = { lid : int; fail_at : float; recover_at : float }

type config = {
  probe_loss_p : float;
  reply_loss_p : float;
  rl_share : float;
  rl_rate : float;
  rl_burst : float;
  dark_share : float;
  dark_after : int;
  failures : failure list;
}

val zero : config

(** [is_zero c] — no impairment class is active; the engine treats the
    fault layer as a strict no-op. *)
val is_zero : config -> bool

(** [of_profile ?profile w] converts scenario-level knobs into a runtime
    config, choosing the failing links deterministically from the
    world's interdomain links via an RNG split off the world seed
    (failures are staggered 15 s apart so forwarding flaps repeatedly
    during collection). [profile] defaults to [w.params.fault]. *)
val of_profile : ?profile:Gen.fault_profile -> Gen.world -> config

type state

(** [create ~seed cfg] builds per-engine fault state. Engines created
    with equal [seed] and [cfg] produce identical drop sequences for
    identical probe sequences. *)
val create : seed:int -> config -> state

val config : state -> config

(** [probe_lost st] — the probe dies on the forward path. Draws only
    when [probe_loss_p > 0]. *)
val probe_lost : state -> bool

(** [first_failed_step st ~now ~lids ~hops] is the index of the first
    of the [hops] path steps whose entry link (its id in [lids]) is
    down at [now], if any: the probe is dropped there and hops at or
    beyond the index never answer. *)
val first_failed_step : state -> now:float -> lids:int array -> hops:int -> int option

(** [reply_allowed st ~rid ~now] gates a reply router [rid] is about to
    send: token bucket first (a limited router refuses to generate the
    reply), then the dark quota (counts generated replies), then reply
    transit loss. Mutates bucket/quota state; a zero config returns
    true without drawing or mutating anything. *)
val reply_allowed : state -> rid:int -> now:float -> bool

type stats = {
  probes_lost : int;  (** forward-path losses *)
  replies_lost : int;  (** replies lost in transit *)
  rate_limited : int;  (** replies refused by token buckets *)
  dark_dropped : int;  (** replies refused by exhausted dark quotas *)
  failure_hits : int;  (** probes whose path crossed a failed link *)
}

val stats : state -> stats
