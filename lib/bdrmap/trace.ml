open Netcore

type closing = Echo of Ipv4.t | Unreach of Ipv4.t | Nothing

type t = {
  dst : Ipv4.t;
  target_asn : Asn.t;
  hops : (int * int) list;
  closing : closing;
  stopped : bool;
}

let pairs t =
  let rec go = function
    | (ttl1, a1) :: ((ttl2, a2) :: _ as rest) ->
      (a1, a2, ttl2 > ttl1 + 1) :: go rest
    | _ -> []
  in
  go t.hops

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
   builds one tuple per distinct hop and one cons cell per distinct
   suffix. A closing cell is a tag byte
   (0 none, 1 echo, 2 unreachable) followed by the address unless it
   is none. The variable-width columns before the last carry their byte
   length ({!Store.Codec.put_sized}), so the decoder reads every column
   in step, one trace at a time. *)

module Codec = Store.Codec

(* Keys pack two small ints; the product's high half, folded onto its
   low bits, spreads both over the bucket index. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)

(* [interner base] numbers keys from [base] in first-seen order; it
   returns a key's id and whether the key is new. *)
let interner base =
  let ids = Itbl.create 1024 in
  fun key ->
    match Itbl.find_opt ids key with
    | Some id -> (id, false)
    | None ->
      let id = base + Itbl.length ids in
      Itbl.add ids key id;
      (id, true)

let encode w traces =
  let hop_id = interner 0 and list_id = interner 1 in
  let hops = Codec.writer 4096 and lists = Codec.writer 4096 in
  let m = ref 0 and k = ref 0 in
  let rec id_of = function
    | [] -> 0
    | (ttl, a) :: rest ->
      let tail = id_of rest in
      let h, fresh = hop_id ((ttl lsl 32) lor a) in
      if fresh then begin
        incr m;
        Codec.put_varint hops ttl;
        Codec.put_varint hops a
      end;
      let l, fresh = list_id ((h lsl 31) lor tail) in
      if fresh then begin
        incr k;
        Codec.put_varint lists h;
        Codec.put_varint lists (l - 1 - tail)
      end;
      l
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

(* A hop names an observed address of [table]. *)
let decode table r =
  let m = Codec.count r ~min_bytes:2 in
  let hops =
    Codec.array m ~fill:(0, 0) (fun _ ->
        let ttl = Codec.varint r in
        let a = Codec.varint r in
        Codec.check
          (a < Aliasres.Alias_graph.length table && Aliasres.Alias_graph.observed table a);
        (ttl, a))
  in
  let k = Codec.count r ~min_bytes:2 in
  let lists = Array.make (k + 1) [] in
  for l = 1 to k do
    let h = Codec.varint r in
    let tail = l - 1 - Codec.varint r in
    if h >= m || tail < 0 then Codec.fail ();
    lists.(l) <- hops.(h) :: lists.(tail)
  done;
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
        { dst; target_asn; hops = lists.(l); closing; stopped })
  in
  List.iter Codec.finish [ dsts; asns; closings; stops ];
  traces
