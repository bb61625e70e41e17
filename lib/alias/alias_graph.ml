open Netcore
module ISet = Set.Make (Int)

module Uf = struct
  (* The run's address registry: every address gets a dense id when it
     is first seen, and a union-find over the ids (path compression
     only) keeps, per root, the set of roots it conflicts with. Unions
     are refused when the two roots conflict. [keys.(i)] is id [i]'s
     address shifted left once, its low bit set once a trace hop
     observed it; [conflicts.(r)] is root [r]'s conflict set. *)
  type t = {
    index : int Ipv4.Tbl.t;
    mutable keys : int array;
    mutable parent : int array;
    mutable conflicts : ISet.t array;
  }

  let create () =
    { index = Ipv4.Tbl.create 1024; keys = Array.make 256 0; parent = Array.make 256 0;
      conflicts = Array.make 256 ISet.empty }

  let size t = Ipv4.Tbl.length t.index

  let intern t ~observed a =
    match Ipv4.Tbl.find_opt t.index a with
    | Some i ->
      if observed then t.keys.(i) <- t.keys.(i) lor 1;
      i
    | None ->
      let i = size t in
      if i = Array.length t.keys then begin
        let grow a fill = Array.append a (Array.make i fill) in
        t.keys <- grow t.keys 0;
        t.parent <- grow t.parent 0;
        t.conflicts <- grow t.conflicts ISet.empty
      end;
      Ipv4.Tbl.add t.index a i;
      t.keys.(i) <- (Ipv4.to_int a lsl 1) lor Bool.to_int observed;
      t.parent.(i) <- i;
      i

  let lookup t a = Option.value ~default:(-1) (Ipv4.Tbl.find_opt t.index a)
  let addr t i = Ipv4.of_int (t.keys.(i) lsr 1)

  let rec find t i =
    let p = t.parent.(i) in
    if p = i then i
    else begin
      let root = find t p in
      t.parent.(i) <- root;
      root
    end

  (* An id of -1 is an address never registered: a router of its own,
     with no vetoes. *)
  let same t i j = i >= 0 && j >= 0 && (i = j || find t i = find t j)
  let vetoed t i j = i >= 0 && j >= 0 && ISet.mem (find t j) t.conflicts.(find t i)

  let separate t i j =
    let ra = find t i and rb = find t j in
    if ra <> rb then begin
      t.conflicts.(ra) <- ISet.add rb t.conflicts.(ra);
      t.conflicts.(rb) <- ISet.add ra t.conflicts.(rb)
    end

  let union t i j =
    let root = find t i and child = find t j in
    if root <> child && not (ISet.mem child t.conflicts.(root)) then begin
      t.parent.(child) <- root;
      (* Merge conflict sets and retarget references to the old root. *)
      let cc = t.conflicts.(child) in
      t.conflicts.(root) <- ISet.union t.conflicts.(root) cc;
      ISet.iter
        (fun other -> t.conflicts.(other) <- ISet.add root (ISet.remove child t.conflicts.(other)))
        cc
    end
end

(* [addrs] ascends strictly. [ids.(i)] is address i's group id shifted
   left once, its low bit set when a trace hop observed the address.
   Group ids count groups in order of their least address. *)
type t = { addrs : int array; ids : int array; groups : int }

let freeze (uf : Uf.t) =
  (* One key per registered address: the address above its registry id,
     which stays below 2^30 (addresses below 2^32, so the key fits an
     int), so one integer sort puts the registry in address order. *)
  let n = Uf.size uf in
  let order = Array.init n (fun i -> ((uf.Uf.keys.(i) lsr 1) lsl 30) lor i) in
  Array.sort Int.compare order;
  (* A group's id is set at its least address: slots by root id. *)
  let pos = Array.make n 0 and slot = Array.make n (-1) and groups = ref 0 in
  let ids =
    Array.init n (fun p ->
        let i = order.(p) land 0x3FFF_FFFF in
        pos.(i) <- p;
        let r = Uf.find uf i in
        if slot.(r) < 0 then begin
          slot.(r) <- !groups;
          incr groups
        end;
        (slot.(r) lsl 1) lor (uf.Uf.keys.(i) land 1))
  in
  ({ addrs = Array.map (fun key -> key lsr 30) order; ids; groups = !groups }, pos)

let length t = Array.length t.addrs
let addr t i = Ipv4.of_int t.addrs.(i)
let group t i = t.ids.(i) lsr 1
let observed t i = t.ids.(i) land 1 = 1
let group_count t = t.groups

(* Groups come out in id order, which is the order of their least
   addresses, so the list is sorted without a sort. *)
let groups t =
  let members = Array.make t.groups [] in
  for i = Array.length t.addrs - 1 downto 0 do
    let g = group t i in
    members.(g) <- addr t i :: members.(g)
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
