(** The device/controller split of §5.8, as a working protocol: the
    controller (running the full bdrmap state) issues probe requests over
    a serialized channel; the device-side servicer holds nothing but the
    prober. Every message is a single text line, so the protocol doubles
    as a wire-format specification:

    {v
    T|<flow>|<dst>|<ttl>        probe request (traceroute)
    P|<dst>                     ping request
    U|<dst>                     udp request
    A|<seconds>                 advance the probing clock
    R|<src>|<kind>|<ipid>       reply
    N                           no reply
    v}

    The channel counts bytes in each direction, giving the measured
    communication cost of the offloaded deployment (the BISmark probers
    of §5.8 streamed raw measurements exactly this way). *)

open Netcore
module Gen = Topogen.Gen

type request =
  | Trace of { flow : int; dst : Ipv4.t; ttl : int }
  | Ping of Ipv4.t
  | Udp of Ipv4.t
  | Advance of float

val request_to_line : request -> string
val request_of_line : string -> (request, string) result
val response_to_line : Engine.reply option -> string
val response_of_line : string -> (Engine.reply option, string) result

(** A bidirectional in-memory channel with byte accounting. *)
module Channel : sig
  type t

  val create : unit -> t

  (** Bytes sent controller→device and device→controller. *)
  val bytes_to_device : t -> int

  val bytes_to_controller : t -> int
  val messages : t -> int

  (** The largest request plus response, newlines included, of one
      round: all the synchronous channel ever holds on the device. *)
  val max_round_bytes : t -> int
end

(** [serve channel engine ~vp request_line] is the device side: parse,
    probe, serialize. Exposed for tests; {!remote} wires it up. *)
val serve : Engine.t -> vp:Gen.vp -> string -> string

(** [remote channel engine ~vp] is a {!Prober.t} whose every operation
    crosses [channel] as serialized lines serviced by [engine]. The
    device side holds no bdrmap state at all. *)
val remote : Channel.t -> Engine.t -> vp:Gen.vp -> Prober.t
