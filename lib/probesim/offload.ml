open Netcore
module Gen = Topogen.Gen

type request =
  | Trace of { flow : int; dst : Ipv4.t; ttl : int }
  | Ping of Ipv4.t
  | Udp of Ipv4.t
  | Advance of float

let request_to_line = function
  | Trace { flow; dst; ttl } ->
    Printf.sprintf "T|%d|%s|%d" flow (Ipv4.to_string dst) ttl
  | Ping dst -> Printf.sprintf "P|%s" (Ipv4.to_string dst)
  | Udp dst -> Printf.sprintf "U|%s" (Ipv4.to_string dst)
  | Advance s -> Printf.sprintf "A|%.3f" s

(* Strict field parsers. [String.split_on_char] already rejects arity
   errors (a trailing field or an embedded '|' changes the arity, so the
   patterns below fall through to the error case), but the stdlib
   numeric parsers are far too liberal for a wire format:
   [int_of_string_opt] takes "0x10", "+5" and "1_000";
   [float_of_string_opt] takes "nan", "inf" and "1e3" — and a NaN clock
   advance would silently wedge the engine's simulated clock. Each field
   therefore accepts exactly the canonical rendering its printer emits,
   which is also what makes the round-trip property
   [of_line (to_line r) = Ok r] meaningful. *)

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* Canonical non-negative decimal: digits only, no redundant leading
   zero, small enough to never overflow. *)
let canon_int s =
  if
    is_digits s
    && String.length s <= 9
    && (String.length s = 1 || s.[0] <> '0')
  then int_of_string_opt s
  else None

let canon_int_range lo hi s =
  match canon_int s with Some v when v >= lo && v <= hi -> Some v | None | Some _ -> None

(* Canonical "%.3f" of a non-negative float: an integer part with no
   redundant leading zero, a dot, exactly three fraction digits. Finite
   and non-negative by construction — "nan", "inf", exponents and signs
   never match. *)
let canon_float3 s =
  match String.index_opt s '.' with
  | Some i
    when String.length s - i - 1 = 3
         && i >= 1
         && i <= 12
         && is_digits (String.sub s 0 i)
         && (i = 1 || s.[0] <> '0')
         && is_digits (String.sub s (i + 1) 3) ->
    float_of_string_opt s
  | _ -> None

(* Canonical dotted quad: [Ipv4.of_string] is strict about shape but
   still accepts redundant leading zeros ("01.2.3.4"); requiring the
   round-trip pins one spelling per address. *)
let canon_addr s =
  match Ipv4.of_string s with
  | Some a when String.equal (Ipv4.to_string a) s -> Some a
  | _ -> None

let request_of_line line =
  match String.split_on_char '|' line with
  | [ "T"; flow; dst; ttl ] -> (
    (* ttl >= 1: the engine indexes the forward path at [ttl - 1]. *)
    match
      (canon_int flow, canon_addr dst, canon_int_range 1 255 ttl)
    with
    | Some flow, Some dst, Some ttl -> Ok (Trace { flow; dst; ttl })
    | _ -> Error (Printf.sprintf "bad trace request %S" line))
  | [ "P"; dst ] -> (
    match canon_addr dst with
    | Some dst -> Ok (Ping dst)
    | None -> Error (Printf.sprintf "bad ping request %S" line))
  | [ "U"; dst ] -> (
    match canon_addr dst with
    | Some dst -> Ok (Udp dst)
    | None -> Error (Printf.sprintf "bad udp request %S" line))
  | [ "A"; s ] -> (
    match canon_float3 s with
    | Some s -> Ok (Advance s)
    | None -> Error (Printf.sprintf "bad advance request %S" line))
  | _ -> Error (Printf.sprintf "bad request %S" line)

let kind_to_string = function
  | Engine.Ttl_expired -> "ttl"
  | Engine.Echo_reply -> "echo"
  | Engine.Dest_unreach -> "unreach"

let kind_of_string = function
  | "ttl" -> Some Engine.Ttl_expired
  | "echo" -> Some Engine.Echo_reply
  | "unreach" -> Some Engine.Dest_unreach
  | _ -> None

let response_to_line = function
  | None -> "N"
  | Some (r : Engine.reply) ->
    Printf.sprintf "R|%s|%s|%d" (Ipv4.to_string r.Engine.src)
      (kind_to_string r.Engine.kind) r.Engine.ipid

let response_of_line line =
  match String.split_on_char '|' line with
  | [ "N" ] -> Ok None
  | [ "R"; src; kind; ipid ] -> (
    match (canon_addr src, kind_of_string kind, canon_int_range 0 0xffff ipid) with
    | Some src, Some kind, Some ipid ->
      (* The responder's identity stays on the device side: the wire
         format carries only what a real ICMP reply would. *)
      Ok (Some { Engine.src; kind; ipid; responder = -1 })
    | _ -> Error (Printf.sprintf "bad response %S" line))
  | _ -> Error (Printf.sprintf "bad response %S" line)

module Channel = struct
  type t = {
    mutable to_device : int;
    mutable to_controller : int;
    mutable msgs : int;
    mutable peak : int;
  }

  let create () = { to_device = 0; to_controller = 0; msgs = 0; peak = 0 }
  let bytes_to_device t = t.to_device
  let bytes_to_controller t = t.to_controller
  let messages t = t.msgs
  let max_round_bytes t = t.peak

  let note t req resp =
    t.to_device <- t.to_device + String.length req + 1;
    t.to_controller <- t.to_controller + String.length resp + 1;
    t.msgs <- t.msgs + 1;
    t.peak <- max t.peak (String.length req + String.length resp + 2)
end

let serve engine ~vp request_line =
  match request_of_line request_line with
  | Error e -> "E|" ^ e
  | Ok (Trace { flow; dst; ttl }) ->
    response_to_line (Engine.trace_probe ~flow engine ~vp ~dst ~ttl)
  | Ok (Ping dst) -> response_to_line (Engine.ping engine ~dst)
  | Ok (Udp dst) -> response_to_line (Engine.udp_probe engine ~dst)
  | Ok (Advance s) ->
    Engine.advance engine s;
    "N"

let remote channel engine ~vp =
  let round req =
    let line = request_to_line req in
    let resp = serve engine ~vp line in
    Channel.note channel line resp;
    match response_of_line resp with
    | Ok r -> r
    | Error e -> invalid_arg ("Offload.remote: " ^ e)
  in
  { Prober.trace_probe =
      (fun ~flow ~dst ~ttl -> round (Trace { flow; dst; ttl }));
    ping = (fun ~dst -> round (Ping dst));
    udp_probe = (fun ~dst -> round (Udp dst));
    advance = (fun s -> ignore (round (Advance s)));
    probe_count = (fun () -> Engine.probe_count engine);
    pps = Engine.pps engine }
