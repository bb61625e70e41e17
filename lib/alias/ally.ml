open Netcore

type verdict = Aliases | Not_aliases | Unresponsive
type sampler = Ipv4.t -> int option

(* [rising ids ~first ~step] is true when the samples at [first],
   [first + step], ... increase strictly mod 2^16: every step advances
   by less than half the ID space, and the whole window wraps at most
   once. *)
let rising ids ~first ~step =
  let n = Array.length ids in
  let rec go k prev advance =
    k >= n
    ||
    let id = ids.(k) in
    let d = (id - prev) land 0xFFFF in
    d <> 0 && d < 32768 && advance + d < 65536 && go (k + step) id (advance + d)
  in
  first >= n || go (first + step) ids.(first) 0

let monotonic ids = rising (Array.of_list ids) ~first:0 ~step:1

(* Round [i] samples [a] into slot [2i], then [b] into slot [2i + 1];
   both are probed even when [a] is silent, and the first silent round
   ends the trial. *)
let trial sampler a b ~samples =
  let ids = Array.make (2 * samples) 0 in
  let rec collect i =
    i >= samples
    ||
    let sa = sampler a in
    let sb = sampler b in
    match (sa, sb) with
    | Some ia, Some ib ->
      ids.(2 * i) <- ia;
      ids.((2 * i) + 1) <- ib;
      collect (i + 1)
    | _ -> false
  in
  if not (collect 0) then Unresponsive
    (* An address whose own samples are not monotonic (random or constant
       IDs) cannot support a velocity inference at all. *)
  else if not (rising ids ~first:0 ~step:2 && rising ids ~first:1 ~step:2) then Unresponsive
  else if rising ids ~first:0 ~step:1 then Aliases
  else Not_aliases

let test sampler ~wait a b ~trials ~samples =
  let rec go i best =
    if i >= trials then best
    else begin
      if i > 0 then wait ();
      match trial sampler a b ~samples with
      | Not_aliases -> Not_aliases
      | Aliases -> go (i + 1) Aliases
      | Unresponsive -> go (i + 1) best
    end
  in
  go 0 Unresponsive

let trial_proximity sampler a b ~samples ~fudge =
  let rec collect i acc =
    if i >= samples then Some (List.rev acc)
    else
      match (sampler a, sampler b) with
      | Some ia, Some ib -> collect (i + 1) (ib :: ia :: acc)
      | _ -> None
  in
  match collect 0 [] with
  | None -> Unresponsive
  | Some ids ->
    (* The 2002 test accepts "increasing but appropriately proximate"
       values: consecutive samples must stay within the fudge band in
       circular distance, with no strict ordering — which is exactly what
       lets two recently-rebooted counters masquerade as one. *)
    let rec ok moved = function
      | x :: (y :: _ as rest) ->
        let d = (y - x) land 0xFFFF in
        let dist = min d (65536 - d) in
        dist < fudge && ok (moved || dist > 0) rest
      | _ -> moved
    in
    if ok false ids then Aliases else Not_aliases
