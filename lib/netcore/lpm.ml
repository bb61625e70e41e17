(* Flattened longest-prefix-match table: a 16-bit-stride root array over
   a fixed prefix set. [Ptrie] walks one bit per node — ~32 pointer
   chases per lookup on the hot classify path; here a lookup is one
   array index plus a scan of the (almost always tiny) per-slot bucket
   of >/16 prefixes. Built once at freeze time, immutable after.

   Buckets are stored in CSR form — one flat index array plus a
   65537-entry offset array — instead of an array of per-slot arrays:
   no 65536 inner-array headers for the GC to trace, and the query path
   ([lookup_idx]) performs no allocation at all, returning a plain
   binding index that callers resolve with [prefix_at]/[value_at]. *)

type 'a t = {
  pfx : Prefix.t array;  (* sorted by [Prefix.compare]; parallel to [values] *)
  values : 'a array;
  short : int array;  (* 65536 slots: index of the longest <=/16 prefix covering the slot, or -1 *)
  long_off : int array;  (* 65537 CSR offsets into [long_idx], one slot per range *)
  long_idx : int array;  (* per-slot indices of >/16 prefixes, longest first *)
}

let slots = 1 lsl 16
let slot_of addr = Ipv4.to_int addr lsr 16

let length t = Array.length t.pfx

let build bindings =
  (* Sort by prefix; among duplicate keys the later binding wins,
     mirroring [Ptrie.add] overwrite semantics. *)
  let sorted = List.stable_sort (fun (p, _) (q, _) -> Prefix.compare p q) bindings in
  let rec dedupe = function
    | (p, _) :: ((q, _) :: _ as rest) when Prefix.equal p q -> dedupe rest
    | x :: rest -> x :: dedupe rest
    | [] -> []
  in
  let uniq = dedupe sorted in
  let pfx = Array.of_list (List.map fst uniq) in
  let values = Array.of_list (List.map snd uniq) in
  let short = Array.make slots (-1) in
  (* Short prefixes cover a contiguous slot range; fill in increasing
     length so a more-specific prefix overwrites the less-specific one
     and each slot ends up holding its longest <=/16 cover. *)
  let by_len = Array.init (Array.length pfx) (fun i -> i) in
  Array.sort (fun i j -> Int.compare (Prefix.len pfx.(i)) (Prefix.len pfx.(j))) by_len;
  let buckets = Array.make slots [] in
  let n_long = ref 0 in
  Array.iter
    (fun i ->
      let p = pfx.(i) in
      if Prefix.len p <= 16 then
        for s = slot_of (Prefix.first p) to slot_of (Prefix.last p) do
          short.(s) <- i
        done
      else begin
        (* All addresses of a >/16 prefix share the top 16 bits. *)
        let s = slot_of (Prefix.network p) in
        buckets.(s) <- i :: buckets.(s);
        incr n_long
      end)
    by_len;
  (* Flatten the buckets into CSR form: longest first within a slot, so
     the first [Prefix.mem] hit is the LPM. Equal-length prefixes in a
     slot are disjoint, so their relative order cannot matter; break
     ties on the network to keep the structure a pure function of the
     prefix set. *)
  let long_off = Array.make (slots + 1) 0 in
  let long_idx = Array.make !n_long 0 in
  let cursor = ref 0 in
  Array.iteri
    (fun s b ->
      long_off.(s) <- !cursor;
      match b with
      | [] -> ()
      | b ->
        let a = Array.of_list b in
        Array.sort
          (fun i j ->
            match Int.compare (Prefix.len pfx.(j)) (Prefix.len pfx.(i)) with
            | 0 -> Prefix.compare pfx.(i) pfx.(j)
            | c -> c)
          a;
        Array.iter
          (fun i ->
            long_idx.(!cursor) <- i;
            incr cursor)
          a)
    buckets;
  long_off.(slots) <- !cursor;
  { pfx; values; short; long_off; long_idx }

(* A while loop rather than a local recursive function: a closure
   capturing [t]/[addr] would cost one heap block per call, and this is
   the path the zero-allocation test pins down. The local refs do not
   escape, so they compile to mutable stack slots. *)
let lookup_idx t addr =
  let s = slot_of addr in
  let hi = t.long_off.(s + 1) in
  let k = ref t.long_off.(s) in
  let found = ref (-1) in
  while !found < 0 && !k < hi do
    let i = t.long_idx.(!k) in
    if Prefix.mem addr t.pfx.(i) then found := i else incr k
  done;
  if !found >= 0 then !found
  else
    (* A <=/16 prefix covering this slot covers every address in it,
       so no membership test is needed; -1 when nothing covers. *)
    t.short.(s)

let prefix_at t i = t.pfx.(i)
let value_at t i = t.values.(i)

let lookup t addr =
  let i = lookup_idx t addr in
  if i < 0 then None else Some (t.pfx.(i), t.values.(i))

let fold f t acc =
  let acc = ref acc in
  for i = 0 to Array.length t.pfx - 1 do
    acc := f t.pfx.(i) t.values.(i) !acc
  done;
  !acc
