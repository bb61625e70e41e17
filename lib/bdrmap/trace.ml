open Netcore

type closing = Echo of Ipv4.t | Unreach of Ipv4.t | Nothing

type t = {
  dst : Ipv4.t;
  target_asn : Asn.t;
  hops : int array;
  closing : closing;
  stopped : bool;
}

let hop ~ttl id = (id lsl 8) lor ttl
let ttl h = h land 0xFF
let id h = h lsr 8

let iter_pairs f t =
  let hops = t.hops in
  for k = 1 to Array.length hops - 1 do
    let p = hops.(k - 1) and h = hops.(k) in
    f (id p) (id h) (ttl h > ttl p + 1)
  done

(* {2 Codec}

   traces := hop table | list table | n | dst column (u32s)
           | asn column (varints) | closing column | stopped column
             (bytes) | list column (varints)
   hop table := m, then m distinct (ttl, address-table id) varint
                pairs in first-seen order
   list table := k, then for list ids 1..k: hop index | the list's own
                 id less one less its tail's id (varints; the tail is
                 below the list, id 0 is the empty list)

   Doubletree's traces from one VP share their near hops, and traces
   into one block share whole paths, so hop lists are hash-consed: the
   list table holds each distinct suffix once, and a trace names its
   hop list by id. A new suffix's tail is most often the suffix made
   just before it, so the step back to it fits one byte. The decoder
   packs each distinct hop once and expands the suffix chain of each
   distinct path, which runs in path order, into one array that the
   traces over it share. A closing cell is a tag byte
   (0 none, 1 echo, 2 unreachable) followed by the address unless it
   is none. The variable-width columns before the last carry their byte
   length ({!Store.Codec.put_sized}), so the decoder reads every column
   in step, one trace at a time. *)

module Codec = Store.Codec

(* [interner base] numbers keys from [base] in first-seen order; it
   returns a key's id and whether the key is new. *)
let interner base =
  let ids = Pair_tbl.create 1024 in
  fun key ->
    match Pair_tbl.find_opt ids key with
    | Some id -> (id, false)
    | None ->
      let id = base + Pair_tbl.length ids in
      Pair_tbl.add ids key id;
      (id, true)

let encode w traces =
  let hop_id = interner 0 and list_id = interner 1 in
  let hops = Codec.writer 4096 and lists = Codec.writer 4096 in
  let m = ref 0 and k = ref 0 in
  (* A list names its tail, so suffixes are interned from the last hop
     back. *)
  let id_of path =
    let tail = ref 0 in
    for i = Array.length path - 1 downto 0 do
      let h, fresh = hop_id path.(i) in
      if fresh then begin
        incr m;
        Codec.put_varint hops (ttl path.(i));
        Codec.put_varint hops (id path.(i))
      end;
      let l, fresh = list_id ((h lsl 31) lor !tail) in
      if fresh then begin
        incr k;
        Codec.put_varint lists h;
        Codec.put_varint lists (l - 1 - !tail)
      end;
      tail := l
    done;
    !tail
  in
  let ids = List.map (fun t -> id_of t.hops) traces in
  let put_table n t =
    Codec.put_varint w n;
    let b, len = Codec.contents t in
    Codec.put_raw w (Bytes.sub_string b 0 len)
  in
  put_table !m hops;
  put_table !k lists;
  Codec.put_varint w (List.length traces);
  List.iter (fun t -> Codec.put_u32 w (Ipv4.to_int t.dst)) traces;
  Codec.put_sized w (fun w -> List.iter (fun t -> Codec.put_varint w t.target_asn) traces);
  Codec.put_sized w (fun w ->
      List.iter
        (fun t ->
          match t.closing with
          | Nothing -> Codec.put_u8 w 0
          | Echo a ->
            Codec.put_u8 w 1;
            Codec.put_u32 w (Ipv4.to_int a)
          | Unreach a ->
            Codec.put_u8 w 2;
            Codec.put_u32 w (Ipv4.to_int a))
        traces);
  List.iter (fun t -> Codec.put_bool w t.stopped) traces;
  List.iter (Codec.put_varint w) ids

let addr r = Ipv4.of_int (Codec.u32 r)

(* A hop has a TTL that packs and names an observed address of
   [table]. List [l] is hop [hops.(chain.(l) land 0x7FFFFFFF)] then
   list [chain.(l) lsr 31], whose id is below its own, down to list 0,
   the empty one. *)
let decode table r =
  let m = Codec.count r ~min_bytes:2 in
  let hops =
    Codec.array m ~fill:0 (fun _ ->
        let ttl = Codec.varint r in
        let a = Codec.varint r in
        Codec.check
          (ttl >= 1 && ttl <= 0xFF && a < Aliasres.Alias_graph.length table
          && Aliasres.Alias_graph.observed table a);
        hop ~ttl a)
  in
  let k = Codec.count r ~min_bytes:2 in
  if m > 0x7FFFFFFF || k > 0x7FFFFFFF then Codec.fail ();
  let chain = Array.make (k + 1) 0 in
  for l = 1 to k do
    let h = Codec.varint r in
    let t = l - 1 - Codec.varint r in
    if h >= m || t < 0 then Codec.fail ();
    chain.(l) <- (t lsl 31) lor h
  done;
  let paths = Array.make (k + 1) [||] in
  let path l =
    if l > 0 && Array.length paths.(l) = 0 then begin
      let rec length l n = if l = 0 then n else length (chain.(l) lsr 31) (n + 1) in
      let a = Array.make (length l 0) 0 and c = ref l in
      for i = 0 to Array.length a - 1 do
        a.(i) <- hops.(chain.(!c) land 0x7FFFFFFF);
        c := chain.(!c) lsr 31
      done;
      paths.(l) <- a
    end;
    paths.(l)
  in
  (* Four columns of at least one byte and one of four per trace. *)
  let n = Codec.count r ~min_bytes:8 in
  let dsts = Codec.sub r (4 * n) in
  let asns = Codec.sub r (Codec.word r) in
  let closings = Codec.sub r (Codec.word r) in
  let stops = Codec.sub r n in
  let traces =
    List.init n (fun _ ->
        let dst = addr dsts in
        let target_asn = Codec.varint asns in
        let closing =
          match Codec.u8 closings with
          | 0 -> Nothing
          | 1 -> Echo (addr closings)
          | 2 -> Unreach (addr closings)
          | _ -> Codec.fail ()
        in
        let stopped = Codec.bool stops in
        let l = Codec.varint r in
        if l > k then Codec.fail ();
        { dst; target_asn; hops = path l; closing; stopped })
  in
  List.iter Codec.finish [ dsts; asns; closings; stops ];
  traces
