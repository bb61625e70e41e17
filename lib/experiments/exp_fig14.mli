(** Experiment F14 — Figure 14: distribution of the number of distinct
    border routers and next-hop ASes observed on paths to every routed
    prefix from the VPs of the large access network. The paper found
    <2% of prefixes leaving via one border router from all VPs, 73% via
    5-15 routers, 13% via more than 15, and 67% of prefixes using the
    same next-hop AS from every VP. *)

type t = {
  n_vps : int;
  n_prefixes : int;
  (* CDF support: (value, fraction of prefixes with count <= value). *)
  border_router_cdf : (int * float) list;
  nexthop_as_cdf : (int * float) list;
  pct_single_router : float;
  pct_5_to_15_routers : float;
  pct_over_15_routers : float;
  pct_single_nexthop : float;
  remote : (float * float * float * float) option;
      (** the same four stats over non-neighbor prefixes only, the
          composition closest to the paper's 500k-prefix denominator *)
}

(** [params ~scale] is the world the experiment runs on: the large
    access network with three times its remote networks. *)
val params : scale:float -> Topogen.Gen.params

val run : ?scale:float -> ?pool:Netcore.Pool.t -> ?store:Store.t -> unit -> t
val print : Format.formatter -> t -> unit
