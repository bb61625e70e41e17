(* Output checks. Each returns what is wrong, so the caller can count
   the op as failed and say why. *)

module Bgp = Routing.Bgp
module Fwd = Routing.Forwarding

(* Number of answers in [out.(0..n-1)] that differ from the map's own
   owner lookup of [addrs.(0..n-1)]. *)
let owner_mismatches qmap ~addrs ~out ~n =
  let bad = ref 0 in
  for i = 0 to n - 1 do
    if out.(i) <> Serve.Qmap.owner qmap (Netcore.Ipv4.of_int addrs.(i)) then
      incr bad
  done;
  !bad

(* A patched (incremental) routing state must equal a scratch freeze of
   the same world: snapshot words, arena and LPM, then the plan. *)
let routing_equal ~scratch:(s_snap, s_plan) ~patched:(p_snap, p_plan) =
  match Bgp.Snapshot.equal s_snap p_snap with
  | Error m -> Error ("snapshot: " ^ m)
  | Ok () -> (
    match Fwd.plan_equal ~scratch:s_plan ~patched:p_plan with
    | Error m -> Error ("plan: " ^ m)
    | Ok () -> Ok ())

(* A repeated one-VP run must infer the same links with the same probe
   count as the first. *)
let same_run ~(expected : Bdrmap.Pipeline.run) (got : Bdrmap.Pipeline.run) =
  if got.probes <> expected.probes then
    Error
      (Printf.sprintf "probes %d, expected %d" got.probes expected.probes)
  else if
    got.inference.Bdrmap.Heuristics.links
    <> expected.inference.Bdrmap.Heuristics.links
  then Error "inferred links differ"
  else Ok ()

let same_bytes ~what ~expected got =
  if Bytes.equal expected got then Ok ()
  else
    Error
      (Printf.sprintf "%s: %d bytes differ from the expected %d" what
         (Bytes.length got) (Bytes.length expected))
