(** Sequential allocator for the simulated address space. Hands out
    disjoint blocks from public unicast space, and carves point-to-point
    subnets (/30, /31) and loopbacks out of an AS's infrastructure block,
    mirroring operational numbering practice (§4 challenge 1). *)

open Netcore

type t

(** [create ()] starts allocating at 1.0.0.0 and skips reserved and
    private ranges. [?first] starts the cursor higher — a second
    allocator that must stay disjoint from an existing one (world
    evolution) passes the first address above everything already
    handed out. *)
val create : ?first:Ipv4.t -> unit -> t

(** [alloc_block t len] is a fresh /len block. Raises
    [Invalid_argument] (in {!Gen.validate_params}' fail-fast style) when
    [len] is outside \[2, 32\] or when no block of that size fits below
    the multicast boundary — a block ending exactly at 223.255.255.255
    is the last one handed out. *)
val alloc_block : t -> int -> Prefix.t

(** A per-AS pool used for interconnect subnets and loopbacks. *)
type pool

(** [pool_of t block] builds a pool carving from [block]. *)
val pool_of : Prefix.t -> pool

(** [alloc_subnet pool len] carves a /len (30 or 31 for interconnects);
    raises [Invalid_argument] when the pool is exhausted. *)
val alloc_subnet : pool -> int -> Prefix.t

(** [alloc_addr pool] carves a single /32 (loopback or LAN address). *)
val alloc_addr : pool -> Ipv4.t

(** [p2p_addrs subnet] is the pair of usable endpoint addresses of a /30
    or /31 interconnect subnet. *)
val p2p_addrs : Prefix.t -> Ipv4.t * Ipv4.t
