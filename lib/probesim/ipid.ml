open Netcore
module Net = Topogen.Net

type counter = { base : int; rate : float; mutable sent : int }

module Itbl = Hashtbl.Make (Int)

type t = {
  seed : int;
  shared : counter Itbl.t;  (* router id *)
  per_iface : counter Itbl.t;  (* rid lsl 32 lor interface address *)
  rng : Rng.t;
}

let create ~seed =
  { seed; shared = Itbl.create 256; per_iface = Itbl.create 256;
    rng = Rng.create (seed lxor 0x1b9d) }

(* Deterministic per-key parameters so repeated runs agree. A sizeable
   share of routers rebooted recently, so their counters cluster near
   zero: two such counters advance close together for a while, which is
   what makes single-trial ID comparisons false-positive and why bdrmap
   repeats Ally at five-minute spacing (5.3). *)
let fresh_counter seed key =
  let r = Rng.create (seed lxor (key * 2654435761)) in
  if Rng.bool r ~p:0.35 then
    (* Recently rebooted, lightly loaded: counter still near zero. *)
    { base = Rng.int r 1500; rate = 0.3 +. Rng.float r *. 2.0; sent = 0 }
  else { base = Rng.int r 65536; rate = 2.0 +. Rng.float r *. 300.0; sent = 0 }

(* The counter stored under [key], created from [seed_key] on first use. *)
let counter_in t tbl key ~seed_key =
  match Itbl.find tbl key with
  | c -> c
  | exception Not_found ->
    let c = fresh_counter t.seed seed_key in
    Itbl.add tbl key c;
    c

let advance c ~now =
  c.sent <- c.sent + 1;
  (c.base + c.sent + int_of_float (c.rate *. now)) land 0xFFFF

let sample t router ~addr ~now =
  let rid = router.Net.rid in
  match router.Net.behavior.ipid with
  | Net.Random_id -> Rng.int t.rng 65536
  | Net.Zero_id -> 0
  | Net.Shared_counter -> advance (counter_in t t.shared rid ~seed_key:rid) ~now
  | Net.Per_iface ->
    let a = Ipv4.to_int addr in
    advance
      (counter_in t t.per_iface ((rid lsl 32) lor a) ~seed_key:(rid lxor (a * 31)))
      ~now
