open Netcore
module Gen = Topogen.Gen
module Net = Topogen.Net

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

let zero =
  { probe_loss_p = 0.0;
    reply_loss_p = 0.0;
    rl_share = 0.0;
    rl_rate = 0.0;
    rl_burst = 0.0;
    dark_share = 0.0;
    dark_after = 0;
    failures = [] }

let is_zero c =
  c.probe_loss_p <= 0.0 && c.reply_loss_p <= 0.0
  && (c.rl_share <= 0.0 || c.rl_rate <= 0.0)
  && (c.dark_share <= 0.0 || c.dark_after <= 0)
  && c.failures = []

let of_profile ?profile (w : Gen.world) =
  let p = match profile with Some p -> p | None -> w.Gen.params.Gen.fault in
  let failures =
    if p.Gen.f_fail_links <= 0 then []
    else begin
      (* Pick victims among the hosting org's own border links: internal
         outages reroute silently inside an AS, and a failure on a far
         link no trace crosses is invisible — the host's interconnects
         are what flaps the inferred borders. Selection is a dedicated
         stream off the world seed so it is independent of probing
         order. *)
      let rng = Rng.create (w.Gen.params.Gen.seed lxor 0x0fa1) in
      let owner rid = (Net.router w.Gen.net rid).Net.owner in
      let host_side (l : Net.link) =
        Asn.Set.mem (owner (fst l.Net.a)) w.Gen.siblings
        || Asn.Set.mem (owner (fst l.Net.b)) w.Gen.siblings
      in
      let all = Net.interdomain_links w.Gen.net in
      let pool =
        match List.filter host_side all with [] -> all | at_border -> at_border
      in
      let victims = Rng.sample rng p.Gen.f_fail_links pool in
      List.mapi
        (fun i (l : Net.link) ->
          (* Stagger onsets so forwarding keeps changing during the run
             rather than suffering one synchronized blackout. *)
          let at = p.Gen.f_fail_at +. (15.0 *. float_of_int i) in
          { lid = l.Net.lid; fail_at = at; recover_at = at +. p.Gen.f_fail_for })
        victims
    end
  in
  { probe_loss_p = p.Gen.f_probe_loss;
    reply_loss_p = p.Gen.f_reply_loss;
    rl_share = p.Gen.f_rl_share;
    rl_rate = p.Gen.f_rl_rate;
    rl_burst = p.Gen.f_rl_burst;
    dark_share = p.Gen.f_dark_share;
    dark_after = p.Gen.f_dark_after;
    failures }

type bucket = { mutable tokens : float; mutable last : float }

type stats = {
  probes_lost : int;
  replies_lost : int;
  rate_limited : int;
  dark_dropped : int;
  failure_hits : int;
}

type state = {
  cfg : config;
  seed : int;
  loss_rng : Rng.t;  (** probe/reply Bernoulli draws *)
  buckets : (int, bucket option) Hashtbl.t;  (** rid -> bucket if limited *)
  dark : (int, int ref option) Hashtbl.t;  (** rid -> remaining quota *)
  failed : (int, failure) Hashtbl.t;  (** lid -> schedule *)
  mutable probes_lost : int;
  mutable replies_lost : int;
  mutable rate_limited : int;
  mutable dark_dropped : int;
  mutable failure_hits : int;
}

let create ~seed cfg =
  let failed = Hashtbl.create 7 in
  List.iter (fun f -> Hashtbl.replace failed f.lid f) cfg.failures;
  { cfg;
    seed;
    loss_rng = Rng.create (seed lxor 0xfa57);
    buckets = Hashtbl.create 64;
    dark = Hashtbl.create 64;
    failed;
    probes_lost = 0;
    replies_lost = 0;
    rate_limited = 0;
    dark_dropped = 0;
    failure_hits = 0 }

let config t = t.cfg

(* Membership of a router in the rate-limited / dark subsets is a pure
   function of (seed, rid, salt): probe order and domain count cannot
   perturb which routers misbehave, only when their state trips. *)
let member ~seed ~salt ~rid ~share =
  let h = Rng.create ((seed * 0x9e3779b9) lxor (rid * 0x85ebca6b) lxor salt) in
  Rng.float h < share

let probe_lost t =
  t.cfg.probe_loss_p > 0.0
  && Rng.bool t.loss_rng ~p:t.cfg.probe_loss_p
  && begin
       t.probes_lost <- t.probes_lost + 1;
       true
     end

let link_down t ~now lid =
  match Hashtbl.find_opt t.failed lid with
  | None -> false
  | Some f -> now >= f.fail_at && now < f.recover_at

let first_failed_step t ~now ~lids ~hops =
  if Hashtbl.length t.failed = 0 then None
  else begin
    let rec scan i =
      if i >= hops then None
      else if link_down t ~now lids.(i) then begin
        t.failure_hits <- t.failure_hits + 1;
        Some i
      end
      else scan (i + 1)
    in
    scan 0
  end

let bucket_for t rid =
  match Hashtbl.find_opt t.buckets rid with
  | Some b -> b
  | None ->
      let b =
        if
          t.cfg.rl_share > 0.0 && t.cfg.rl_rate > 0.0
          && member ~seed:t.seed ~salt:0x11 ~rid ~share:t.cfg.rl_share
        then Some { tokens = Float.max 1.0 t.cfg.rl_burst; last = 0.0 }
        else None
      in
      Hashtbl.replace t.buckets rid b;
      b

let dark_for t rid =
  match Hashtbl.find_opt t.dark rid with
  | Some d -> d
  | None ->
      let d =
        if
          t.cfg.dark_share > 0.0 && t.cfg.dark_after > 0
          && member ~seed:t.seed ~salt:0x22 ~rid ~share:t.cfg.dark_share
        then Some (ref t.cfg.dark_after)
        else None
      in
      Hashtbl.replace t.dark rid d;
      d

let reply_allowed t ~rid ~now =
  let rl_ok =
    match
      if t.cfg.rl_share > 0.0 && t.cfg.rl_rate > 0.0 then bucket_for t rid
      else None
    with
    | None -> true
    | Some b ->
        (* Refill, capped at burst; each generated reply costs one token. *)
        if now > b.last then begin
          b.tokens <-
            Float.min t.cfg.rl_burst
              (b.tokens +. ((now -. b.last) *. t.cfg.rl_rate));
          b.last <- now
        end;
        if b.tokens >= 1.0 then begin
          b.tokens <- b.tokens -. 1.0;
          true
        end
        else begin
          t.rate_limited <- t.rate_limited + 1;
          false
        end
  in
  if not rl_ok then false
  else
    let dark_ok =
      match
        if t.cfg.dark_share > 0.0 && t.cfg.dark_after > 0 then dark_for t rid
        else None
      with
      | None -> true
      | Some remaining ->
          if !remaining > 0 then begin
            decr remaining;
            true
          end
          else begin
            t.dark_dropped <- t.dark_dropped + 1;
            false
          end
    in
    if not dark_ok then false
    else if t.cfg.reply_loss_p > 0.0 && Rng.bool t.loss_rng ~p:t.cfg.reply_loss_p
    then begin
      t.replies_lost <- t.replies_lost + 1;
      false
    end
    else true

let stats t =
  { probes_lost = t.probes_lost;
    replies_lost = t.replies_lost;
    rate_limited = t.rate_limited;
    dark_dropped = t.dark_dropped;
    failure_hits = t.failure_hits }
