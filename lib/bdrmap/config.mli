(** bdrmap run configuration (§5.2, §5.3): the VP AS set (the hosting
    network and its manually curated siblings — the only input requiring
    manual oversight), probing limits, and alias-resolution discipline. *)

open Netcore

type t = {
  vp_asns : Asn.Set.t;  (** the hosting org's ASes *)
  ally_trials : int;  (** repeated Ally measurements (paper: 5) *)
  ally_proximity : bool;
      (** use the original proximity comparison instead of MIDAR-style
          monotonicity (ablation baseline; the paper uses monotonicity) *)
  use_stop_sets : bool;  (** doubletree stop sets (ablation knob) *)
  max_alias_candidates : int;  (** cap on candidate pairs probed *)
  probe_retries : int;
      (** extra attempts at a silent traceroute hop before conceding the
          gap — recovers transiently lost or rate-limited replies
          (default 0: the hop is retried never, matching the pre-fault
          pipeline probe-for-probe) *)
  retry_budget : int;
      (** total retries allowed per traced target, so one pathological
          path cannot consume an unbounded probe budget *)
}

val default : vp_asns:Asn.Set.t -> t
