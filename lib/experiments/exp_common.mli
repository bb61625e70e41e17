(** Shared experiment plumbing: build a world once, run the bdrmap
    pipeline from one or many VPs over a shared probing engine, and map
    observations back to ground truth where a figure needs true
    router identity (standing in for MIDAR-grade alias resolution). *)

open Netcore
module Gen = Topogen.Gen
module Net = Topogen.Net

type env = {
  world : Gen.world;
  shared : Bdrmap.Pipeline.shared;
      (** the world's one snapshot and plan, built by {!make}; every
          sweep over [env] reuses it *)
  fwd : Routing.Forwarding.t;
  engine : Probesim.Engine.t;
  inputs : Bdrmap.Pipeline.inputs;
}

(** [make ?pps ?store params] generates the world and sets up its
    routing and probing stack through {!Bdrmap.Pipeline.setup} (one
    freeze, served from [store] when it holds the snapshot). Cached
    per [(params, pps)]. *)
val make : ?pps:float -> ?store:Store.t -> Gen.params -> env

(** [run_vp env vp] executes the full pipeline from [vp]. *)
val run_vp : env -> Gen.vp -> Bdrmap.Pipeline.run

(** [run_vps ?pool ?store env vps] executes the pipeline from every VP
    via {!Bdrmap.Pipeline.execute_all} over [env]'s shared snapshot and
    plan: private per-VP engines, optional domain parallelism and
    persistent checkpointing, results in [vps] order. *)
val run_vps :
  ?pool:Pool.t -> ?store:Store.t -> env -> Gen.vp list -> Bdrmap.Pipeline.run list

(** [org_of env asn] resolves the ground-truth organization. *)
val org_of : env -> Asn.t -> string

(** [host_links_to env ~neighbor_org] is every true interdomain link of
    the hosting org with [neighbor_org]. *)
val host_links_to : env -> neighbor_org:string -> Net.link list

(** [crossing_link env ~vp ~dst] is the first interdomain link the
    forward path from [vp] to [dst] crosses out of the hosting org. *)
val crossing_link : env -> vp:Gen.vp -> dst:Ipv4.t -> Net.link option

(** [crossing_links_by_vp ?pool env prefixes] is {!crossing_link} for
    every (VP, prefix) pair: one inner list per VP in [env]'s VP order,
    one element per prefix in [prefixes] order. Each sweep attaches a
    forwarding stack to [env]'s shared snapshot and plan: one in the
    calling domain without a pool, one per worker domain with one; the
    result is identical either way. With a [store], each
    VP's column is cached under (world params, prefixes, vp) — the
    sweeps of fig 14/15/16 share one key space, so they warm-start from
    each other even within a single cold invocation. *)
val crossing_links_by_vp :
  ?pool:Pool.t ->
  ?store:Store.t ->
  env ->
  (Prefix.t * Ipv4.t) list ->
  Net.link option list list

(** [external_prefixes env] is every routed prefix not originated by the
    hosting org, with a representative probe address. *)
val external_prefixes : env -> (Prefix.t * Ipv4.t) list
