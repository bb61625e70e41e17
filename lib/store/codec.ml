exception Malformed

let fail () = raise_notrace Malformed
let check ok = if not ok then fail ()

(* -- Writer -- *)

type writer = { mutable buf : bytes; mutable len : int }

let writer ?(at = 0) cap = { buf = Bytes.create (max (at + cap) 16); len = at }

let ensure w n =
  if w.len + n > Bytes.length w.buf then begin
    let nb = Bytes.create (max (w.len + n) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 nb 0 w.len;
    w.buf <- nb
  end

let put_u8 w v =
  ensure w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xFF));
  w.len <- w.len + 1

let put_u32 w v =
  if v < 0 || v > 0xFFFF_FFFF then invalid_arg "Codec.put_u32";
  ensure w 4;
  Bytes.set_int32_be w.buf w.len (Int32.of_int v);
  w.len <- w.len + 4

let put_word w v =
  ensure w 8;
  Bytes.set_int64_be w.buf w.len (Int64.of_int v);
  w.len <- w.len + 8

let put_float w f =
  ensure w 8;
  Bytes.set_int64_be w.buf w.len (Int64.bits_of_float f);
  w.len <- w.len + 8

let put_varint w v =
  if v < 0 then invalid_arg "Codec.put_varint";
  ensure w 9;
  let v = ref v in
  while !v >= 0x80 do
    Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (!v land 0x7F lor 0x80));
    w.len <- w.len + 1;
    v := !v lsr 7
  done;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr !v);
  w.len <- w.len + 1

let put_bool w b = put_u8 w (Bool.to_int b)

let put_raw w s =
  let n = String.length s in
  ensure w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let put_string w s =
  put_varint w (String.length s);
  put_raw w s

let put_sized w put =
  let len_at = w.len in
  put_word w 0;
  put w;
  Bytes.set_int64_be w.buf len_at (Int64.of_int (w.len - len_at - 8))

let put_list w put l =
  put_varint w (List.length l);
  List.iter (put w) l

let contents w = (w.buf, w.len)

(* -- Reader -- *)

type reader = { s : string; mutable pos : int; stop : int; mutable scratch : int array }

let left r = r.stop - r.pos

let u8 r =
  if r.pos >= r.stop then fail ();
  let c = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  c

let u32 r =
  if r.stop - r.pos < 4 then fail ();
  let v = Int32.to_int (String.get_int32_be r.s r.pos) land 0xFFFF_FFFF in
  r.pos <- r.pos + 4;
  v

let word r =
  if r.stop - r.pos < 8 then fail ();
  let v = Int64.to_int (String.get_int64_be r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let float r =
  if r.stop - r.pos < 8 then fail ();
  let v = Int64.float_of_bits (String.get_int64_be r.s r.pos) in
  r.pos <- r.pos + 8;
  v

(* Minimal LEB128 of a non-negative int: at most nine bytes, the ninth
   holding bits 56-61, and no trailing zero byte. *)
let rec varint_more r acc shift =
  let b = u8 r in
  if shift = 56 && b > 0x3F then fail ();
  if b < 0x80 then begin
    if b = 0 then fail ();
    acc lor (b lsl shift)
  end
  else varint_more r (acc lor ((b land 0x7F) lsl shift)) (shift + 7)

let varint r =
  let b = u8 r in
  if b < 0x80 then b else varint_more r (b land 0x7F) 7

let bool r =
  match u8 r with
  | 0 -> false
  | 1 -> true
  | _ -> fail ()

(* [c <= left] first, so the product cannot wrap. *)
let bounded r c ~min_bytes =
  let left = left r in
  if c < 0 || c > left || c * min_bytes > left then fail ();
  c

let count r ~min_bytes = bounded r (varint r) ~min_bytes

let sub r n =
  if n < 0 || n > left r then fail ();
  let v = { s = r.s; pos = r.pos; stop = r.pos + n; scratch = [||] } in
  r.pos <- r.pos + n;
  v

let string r =
  let v = sub r (varint r) in
  String.sub v.s v.pos (v.stop - v.pos)

let finish r = if r.pos <> r.stop then fail ()

let scratch r n =
  if Array.length r.scratch < n then r.scratch <- Array.make (max n 64) 0;
  r.scratch

let array n ~fill f =
  let a = Array.make n fill in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a

let list r ~min_bytes get = List.init (count r ~min_bytes) (fun _ -> get r)

let rec strictly_ascending cmp = function
  | a :: (b :: _ as rest) -> cmp a b < 0 && strictly_ascending cmp rest
  | _ -> true

let ascending r ~min_bytes get cmp =
  let l = list r ~min_bytes get in
  check (strictly_ascending cmp l);
  l

(* A set of [n] ints is built in O(n) words by mapping a cached set of
   the ranks [0, 2^k) (the least [2^k >= n]) through the sorted
   elements: rank [i] becomes element [i] and ranks past [n] are
   dropped. The result does not depend on the order [filter_map] visits
   the ranks in; visited in ascending order, as the stdlib does, every
   node is rejoined without rebalancing, where [S.of_list] would sort
   the list first. Templates are cached up to [2^max_k] ranks, so a
   crafted count cannot make the cache hold more; larger sets are
   sorted. *)
module Int_set
    (S : Set.S)
    (E : sig
      val of_int : int -> S.elt
      val to_int : S.elt -> int
    end) =
struct
  let max_k = 12
  let templates = Array.init (max_k + 1) (fun _ -> Atomic.make S.empty)

  (* A race builds a template twice, harmlessly: both are the same set. *)
  let template k =
    let t = Atomic.get templates.(k) in
    if not (S.is_empty t) then t
    else begin
      let t = S.of_list (List.init (1 lsl k) E.of_int) in
      Atomic.set templates.(k) t;
      t
    end

  let put w put_elt s =
    put_varint w (S.cardinal s);
    S.iter (fun x -> put_elt w (E.to_int x)) s

  (* The set of the [len] ints of [a] from [pos], which ascend
     strictly. *)
  let of_sorted a ~pos ~len =
    if len = 0 then S.empty
    else if len = 1 then S.singleton (E.of_int a.(pos))
    else if len > 1 lsl max_k then S.of_list (List.init len (fun i -> E.of_int a.(pos + i)))
    else begin
      let k = ref 1 in
      while 1 lsl !k < len do incr k done;
      S.filter_map
        (fun rank ->
          let i = E.to_int rank in
          if i < len then Some (E.of_int a.(pos + i)) else None)
        (template !k)
    end

  let get r ~min_bytes get_elt =
    match count r ~min_bytes with
    | 0 -> S.empty
    | 1 -> S.singleton (E.of_int (get_elt r))
    | n ->
      let a = scratch r n in
      for i = 0 to n - 1 do
        let x = get_elt r in
        if i > 0 && x <= a.(i - 1) then fail ();
        a.(i) <- x
      done;
      of_sorted a ~pos:0 ~len:n
end

let decode f s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Codec.decode";
  let r = { s; pos; stop = pos + len; scratch = [||] } in
  match f r with
  | v -> if r.pos = r.stop then Ok v else Error Envelope.Corrupt
  | exception Malformed -> Error Envelope.Corrupt
