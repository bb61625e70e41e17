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

let remap_values f t = { t with values = Array.map f t.values }

(* Incremental rebuild: apply a small binding edit without re-sorting
   the whole table or refilling all 65536 root slots. Only the slots
   covered by a removed or added prefix are recomputed; every other
   slot's root cover and bucket contents are translated through the
   old-index -> new-index map. The CSR offset/index arrays are
   rewritten (O(slots + n_long) int stores, no comparisons), so the
   result is structurally identical to [build] over the edited binding
   set — the equivalence the churn tests pin down. *)
let patch t ~remove ~add ~remap =
  let removed = List.sort_uniq Prefix.compare remove in
  let added =
    (* Later binding wins among duplicate adds, mirroring [build]. *)
    let sorted = List.stable_sort (fun (p, _) (q, _) -> Prefix.compare p q) add in
    let rec dedupe = function
      | (p, _) :: ((q, _) :: _ as rest) when Prefix.equal p q -> dedupe rest
      | x :: rest -> x :: dedupe rest
      | [] -> []
    in
    Array.of_list (dedupe sorted)
  in
  let n_old = Array.length t.pfx in
  let n_add = Array.length added in
  let overwritten p =
    let rec go lo hi =
      if lo >= hi then false
      else
        let mid = (lo + hi) / 2 in
        match Prefix.compare p (fst added.(mid)) with
        | 0 -> true
        | c when c < 0 -> go lo mid
        | _ -> go (mid + 1) hi
    in
    go 0 n_add
  in
  let keep = Array.make (max 1 n_old) true in
  let n_keep = ref 0 in
  for i = 0 to n_old - 1 do
    let p = t.pfx.(i) in
    let k = not (List.exists (Prefix.equal p) removed) && not (overwritten p) in
    keep.(i) <- k;
    if k then incr n_keep
  done;
  let n_new = !n_keep + n_add in
  if n_new = 0 then build []
  else begin
    let dummy_p = if n_old > 0 then t.pfx.(0) else fst added.(0) in
    let dummy_v = if n_old > 0 then t.values.(0) else snd added.(0) in
    let pfx' = Array.make n_new dummy_p in
    let values' = Array.make n_new dummy_v in
    let old2new = Array.make (max 1 n_old) (-1) in
    (* Merge the surviving old bindings with the added ones (both
       sorted, and disjoint by construction of [keep]). *)
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < n_old || !j < n_add do
      if !i < n_old && not keep.(!i) then incr i
      else if
        !j >= n_add
        || (!i < n_old && Prefix.compare t.pfx.(!i) (fst added.(!j)) < 0)
      then begin
        pfx'.(!k) <- t.pfx.(!i);
        values'.(!k) <- remap t.values.(!i);
        old2new.(!i) <- !k;
        incr i;
        incr k
      end
      else begin
        pfx'.(!k) <- fst added.(!j);
        values'.(!k) <- snd added.(!j);
        incr j;
        incr k
      end
    done;
    (* Slots whose root cover or bucket could have changed. *)
    let dirty = Array.make slots false in
    let mark p =
      if Prefix.len p <= 16 then
        for s = slot_of (Prefix.first p) to slot_of (Prefix.last p) do
          dirty.(s) <- true
        done
      else dirty.(slot_of (Prefix.network p)) <- true
    in
    List.iter mark removed;
    Array.iter (fun (p, _) -> mark p) added;
    let find_idx p =
      let rec go lo hi =
        if lo >= hi then -1
        else
          let mid = (lo + hi) / 2 in
          match Prefix.compare p pfx'.(mid) with
          | 0 -> mid
          | c when c < 0 -> go lo mid
          | _ -> go (mid + 1) hi
      in
      go 0 n_new
    in
    let short' = Array.make slots (-1) in
    for s = 0 to slots - 1 do
      if not dirty.(s) then begin
        let o = t.short.(s) in
        short'.(s) <- (if o >= 0 then old2new.(o) else -1)
      end
      else begin
        (* Longest <=/16 cover of the slot: at most 17 exact probes. *)
        let base = Ipv4.of_int (s lsl 16) in
        let l = ref 16 in
        while short'.(s) < 0 && !l >= 0 do
          let idx = find_idx (Prefix.make base !l) in
          if idx >= 0 then short'.(s) <- idx else decr l
        done
      end
    done;
    (* First index in [pfx'] whose network is >= [v] (as an int). *)
    let lower_bound v =
      let lo = ref 0 and hi = ref n_new in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Ipv4.to_int (Prefix.network pfx'.(mid)) < v then lo := mid + 1
        else hi := mid
      done;
      !lo
    in
    let dirty_buckets = Hashtbl.create 16 in
    let total = ref 0 in
    for s = 0 to slots - 1 do
      if dirty.(s) then begin
        let lo = lower_bound (s lsl 16) and hi = lower_bound ((s + 1) lsl 16) in
        let b = ref [] in
        for idx = lo to hi - 1 do
          if Prefix.len pfx'.(idx) > 16 then b := idx :: !b
        done;
        let a = Array.of_list !b in
        Array.sort
          (fun i j ->
            match Int.compare (Prefix.len pfx'.(j)) (Prefix.len pfx'.(i)) with
            | 0 -> Prefix.compare pfx'.(i) pfx'.(j)
            | c -> c)
          a;
        Hashtbl.replace dirty_buckets s a;
        total := !total + Array.length a
      end
      else total := !total + (t.long_off.(s + 1) - t.long_off.(s))
    done;
    let long_off' = Array.make (slots + 1) 0 in
    let long_idx' = Array.make !total 0 in
    let cursor = ref 0 in
    for s = 0 to slots - 1 do
      long_off'.(s) <- !cursor;
      match Hashtbl.find_opt dirty_buckets s with
      | Some a ->
        Array.iter
          (fun idx ->
            long_idx'.(!cursor) <- idx;
            incr cursor)
          a
      | None ->
        for k = t.long_off.(s) to t.long_off.(s + 1) - 1 do
          long_idx'.(!cursor) <- old2new.(t.long_idx.(k));
          incr cursor
        done
    done;
    long_off'.(slots) <- !cursor;
    { pfx = pfx'; values = values'; short = short'; long_off = long_off';
      long_idx = long_idx' }
  end

let lookup t addr =
  let i = lookup_idx t addr in
  if i < 0 then None else Some (t.pfx.(i), t.values.(i))

let find_exact t p =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      match Prefix.compare p t.pfx.(mid) with
      | 0 -> Some t.values.(mid)
      | c when c < 0 -> go lo mid
      | _ -> go (mid + 1) hi
  in
  go 0 (Array.length t.pfx)

let fold f t acc =
  let acc = ref acc in
  for i = 0 to Array.length t.pfx - 1 do
    acc := f t.pfx.(i) t.values.(i) !acc
  done;
  !acc
