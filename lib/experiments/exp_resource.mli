(** Experiment R2 — §5.8 resource-limited devices: the state of a
    standalone bdrmap against what the split prober/controller deployment
    leaves on the device, measured on the first large-access VP. The
    paper: bdrmap needs ~150 MB, the scamper prober on a BISmark device
    used 3.5 MB, and the whitebox device class has 32 MB total. *)

(** One class of state: the [items] the run holds, the [bytes] of their
    encoding (§5.2 text lines for inputs, {!Store.Codec} for run state),
    and those bytes [scaled] to a 600k-prefix table for the RIB,
    relationships and targets (per-run state keeps its size). *)
type share = { name : string; items : int; bytes : int; scaled : int }

type t = {
  shares : share list;
  standalone_bytes : int;  (** sum of [scaled]; the split's controller holds it *)
  device_bytes : int;
      (** the same collection run through {!Probesim.Offload}: its
          largest round, all the synchronous channel leaves on the device *)
  to_device_bytes : int;
  to_controller_bytes : int;
  standalone_fits_whitebox : bool;
  split_fits_whitebox : bool;
}

(** Why the experiment could not produce a footprint: [stage] names the
    phase that failed ("generate", "vp-sweep", "offload": the offloaded
    collection encodes unlike the local one), [detail] says what went
    wrong. Reachable from data (e.g. a zero-VP world), so it is a typed
    error rather than an assertion. *)
type error = { stage : string; detail : string }

val error_to_string : error -> string

val run :
  ?scale:float -> ?pool:Netcore.Pool.t -> ?store:Store.t -> unit -> (t, error) result

val print : Format.formatter -> t -> unit
