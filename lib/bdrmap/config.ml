open Netcore

type t = {
  vp_asns : Asn.Set.t;
  ally_trials : int;
  ally_proximity : bool;
  use_stop_sets : bool;
  max_alias_candidates : int;
  probe_retries : int;
  retry_budget : int;
}

let default ~vp_asns =
  { vp_asns; ally_trials = 5; ally_proximity = false; use_stop_sets = true;
    max_alias_candidates = 50_000;
    (* Retries are off by default: on the ideal simulator an unresponsive
       hop is deterministically silent, and re-probing it would only
       shift the clock. Impaired runs turn them on. *)
    probe_retries = 0; retry_budget = 32 }
