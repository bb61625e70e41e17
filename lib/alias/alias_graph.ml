open Netcore

module Uf = struct
  (* Union-find over addresses, plus per-root sets of conflicting roots.
     Unions are refused when the two roots conflict. *)
  type t = {
    parent : Ipv4.t Ipv4.Tbl.t;
    rank : int Ipv4.Tbl.t;
    conflicts : Ipv4.Set.t Ipv4.Tbl.t;
    mutable members : Ipv4.Set.t;
  }

  let create () =
    { parent = Ipv4.Tbl.create 256; rank = Ipv4.Tbl.create 256;
      conflicts = Ipv4.Tbl.create 64; members = Ipv4.Set.empty }

  let rec find t a =
    match Ipv4.Tbl.find_opt t.parent a with
    | None -> a
    | Some p ->
      let root = find t p in
      if not (Ipv4.equal root p) then Ipv4.Tbl.replace t.parent a root;
      root

  let note t a = t.members <- Ipv4.Set.add a t.members

  let conflicts_of t root =
    Option.value ~default:Ipv4.Set.empty (Ipv4.Tbl.find_opt t.conflicts root)

  let vetoed t a b =
    let ra = find t a and rb = find t b in
    Ipv4.Set.mem rb (conflicts_of t ra)

  let add_not_alias t a b =
    note t a;
    note t b;
    let ra = find t a and rb = find t b in
    if not (Ipv4.equal ra rb) then begin
      Ipv4.Tbl.replace t.conflicts ra (Ipv4.Set.add rb (conflicts_of t ra));
      Ipv4.Tbl.replace t.conflicts rb (Ipv4.Set.add ra (conflicts_of t rb))
    end

  let add_alias t a b =
    note t a;
    note t b;
    let ra = find t a and rb = find t b in
    if (not (Ipv4.equal ra rb)) && not (vetoed t a b) then begin
      let ka = Option.value ~default:0 (Ipv4.Tbl.find_opt t.rank ra) in
      let kb = Option.value ~default:0 (Ipv4.Tbl.find_opt t.rank rb) in
      let root, child = if ka >= kb then (ra, rb) else (rb, ra) in
      Ipv4.Tbl.replace t.parent child root;
      if ka = kb then Ipv4.Tbl.replace t.rank root (ka + 1);
      (* Merge conflict sets and retarget references to the old root. *)
      let cc = conflicts_of t child in
      let merged = Ipv4.Set.union (conflicts_of t root) cc in
      if not (Ipv4.Set.is_empty merged) then Ipv4.Tbl.replace t.conflicts root merged;
      Ipv4.Set.iter
        (fun other ->
          let oc = conflicts_of t other in
          Ipv4.Tbl.replace t.conflicts other
            (Ipv4.Set.add root (Ipv4.Set.remove child oc)))
        cc
    end

  let same_router t a b = Ipv4.equal (find t a) (find t b)
end

(* [addrs] ascends strictly. [ids.(i)] is address i's group id shifted
   left once, its low bit set when a trace hop observed the address.
   Group ids count groups in order of their least address. *)
type t = { addrs : int array; ids : int array; groups : int }

let search addrs a =
  let lo = ref 0 and hi = ref (Array.length addrs) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if addrs.(mid) < a then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length addrs && addrs.(!lo) = a then !lo else -1

(* [sort_keys keys] is [keys] in ascending order, for keys below 2^33:
   a least-significant-digit radix sort, 11 bits a pass. *)
let sort_keys keys =
  let n = Array.length keys in
  let src = ref keys and dst = ref (Array.make n 0) in
  let count = Array.make 2049 0 in
  for pass = 0 to 2 do
    let shift = 11 * pass and a = !src and out = !dst in
    Array.fill count 0 2049 0;
    for i = 0 to n - 1 do
      let d = ((a.(i) lsr shift) land 2047) + 1 in
      count.(d) <- count.(d) + 1
    done;
    for d = 1 to 2048 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    for i = 0 to n - 1 do
      let d = (a.(i) lsr shift) land 2047 in
      out.(count.(d)) <- a.(i);
      count.(d) <- count.(d) + 1
    done;
    src := out;
    dst := a
  done;
  !src

let freeze (uf : Uf.t) ~observed ~named =
  (* One tagged key per mention: the address shifted left once, its low
     bit set for a trace hop. Hops repeat across traces; one sort puts
     an address's keys next to each other, and one pass keeps the
     address once with the OR of their observed bits. *)
  let keys =
    Array.make
      (List.length observed + List.length named + Ipv4.Set.cardinal uf.Uf.members)
      0
  in
  let k = ref 0 in
  let put key =
    keys.(!k) <- key;
    incr k
  in
  List.iter (fun a -> put ((Ipv4.to_int a lsl 1) lor 1)) observed;
  List.iter (fun a -> put (Ipv4.to_int a lsl 1)) named;
  Ipv4.Set.iter (fun a -> put (Ipv4.to_int a lsl 1)) uf.Uf.members;
  let keys = sort_keys keys in
  (* In place: each write lands at or behind the key being read. *)
  let n = ref 0 in
  Array.iter
    (fun key ->
      if !n > 0 && keys.(!n - 1) lsr 1 = key lsr 1 then
        keys.(!n - 1) <- keys.(!n - 1) lor key
      else begin
        keys.(!n) <- key;
        incr n
      end)
    keys;
  let addrs = Array.init !n (fun i -> keys.(i) lsr 1) in
  (* Every root is in the table (a member, or an address alone), so
     its slot holds its group's id, set at the group's least address. *)
  let slot = Array.make !n (-1) and groups = ref 0 in
  let ids =
    Array.init !n (fun i ->
        let r = search addrs (Ipv4.to_int (Uf.find uf (Ipv4.of_int addrs.(i)))) in
        if slot.(r) < 0 then begin
          slot.(r) <- !groups;
          incr groups
        end;
        (slot.(r) lsl 1) lor (keys.(i) land 1))
  in
  { addrs; ids; groups = !groups }

let group_count t = t.groups

let group_of t a =
  let i = search t.addrs (Ipv4.to_int a) in
  if i < 0 then -1 else t.ids.(i) lsr 1

let iter t f =
  Array.iteri (fun i a -> f (Ipv4.of_int a) (t.ids.(i) lsr 1) (t.ids.(i) land 1 = 1)) t.addrs

let same_router t a b =
  Ipv4.equal a b || (group_of t a >= 0 && group_of t a = group_of t b)

(* Groups come out in id order, which is the order of their least
   addresses, so the list is sorted without a sort. *)
let groups t =
  let members = Array.make t.groups [] in
  for i = Array.length t.addrs - 1 downto 0 do
    let g = t.ids.(i) lsr 1 in
    members.(g) <- Ipv4.of_int t.addrs.(i) :: members.(g)
  done;
  Array.to_list members

(* {2 Codec}

   table := n | per address, ascending: the step from the previous
            address (from -1 for the first; varint, at least 1)
          | group id shifted left once, or the observed bit (varint)

   The table is a function of the groups and the observed bits, not of
   the order evidence arrived in. *)

module Codec = Store.Codec

let encode w t =
  Codec.put_varint w (Array.length t.addrs);
  let prev = ref (-1) in
  Array.iteri
    (fun i a ->
      Codec.put_varint w (a - !prev);
      Codec.put_varint w t.ids.(i);
      prev := a)
    t.addrs

let decode r =
  let n = Codec.count r ~min_bytes:2 in
  let addrs = Array.make n 0 and ids = Array.make n 0 in
  let prev = ref (-1) and groups = ref 0 in
  for i = 0 to n - 1 do
    let a = !prev + Codec.varint r in
    if a <= !prev || a > 0xFFFF_FFFF then Codec.fail ();
    (* A group's least address names the next unused id. *)
    let id = Codec.varint r in
    if id lsr 1 > !groups then Codec.fail ();
    if id lsr 1 = !groups then incr groups;
    addrs.(i) <- a;
    ids.(i) <- id;
    prev := a
  done;
  { addrs; ids; groups = !groups }
