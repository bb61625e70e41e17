(** Baseline border-inference algorithms the paper argues against or
    compares with (§3, §4):

    - {!naive_ipas}: the canonical approach — map every traceroute hop
      to the origin AS of its longest-matching prefix and declare a
      border wherever consecutive hops map to different ASes. No alias
      resolution, no third-party handling: §4 enumerates seven reasons
      this goes wrong.

    - {!mapit}: a reduction of MAP-IT [Marder & Smith, IMC 2016], which
      infers interface ownership on the interface-level graph using the
      IP-AS mappings of adjacent hops. It requires evidence on both
      sides of a candidate border, so it cannot place the roughly half
      of interdomain links that sit at the end of paths (firewalled and
      silent neighbors) — the comparison the paper draws in §3. *)

open Netcore

type link = {
  near_addr : Ipv4.t;
  far_addr : Ipv4.t option;  (** [None] when only the near side is visible *)
  neighbor : Asn.t;
}

(** [naive_ipas ip2as c] declares a border at every host-to-external
    transition of the longest-prefix-match origin along [c]'s traces. *)
val naive_ipas : Ip2as.t -> Collect.t -> link list

(** [mapit ip2as c] infers borders only where the far side shows two
    adjacent interfaces in the neighbor's address space. *)
val mapit : Ip2as.t -> Collect.t -> link list
