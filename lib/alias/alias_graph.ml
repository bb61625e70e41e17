open Netcore

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

type index = { graph : t; by_root : Ipv4.t list Ipv4.Tbl.t }

(* One pass over [members], descending, so each root's bucket comes out
   sorted ascending without a sort. *)
let index t =
  let by_root = Ipv4.Tbl.create 256 in
  Seq.iter
    (fun a ->
      let root = find t a in
      let cur = Option.value ~default:[] (Ipv4.Tbl.find_opt by_root root) in
      Ipv4.Tbl.replace by_root root (a :: cur))
    (Ipv4.Set.to_rev_seq t.members);
  { graph = t; by_root }

let group idx a =
  match Ipv4.Tbl.find_opt idx.by_root (find idx.graph a) with
  | Some g -> g
  | None -> [ a ]

let groups t =
  Ipv4.Tbl.fold (fun _ g acc -> g :: acc) (index t).by_root []
  |> List.sort compare

(* {2 Codec}

   graph := members (ascending u32 set)
          | parent  (ascending child: child u32, parent u32)
          | rank    (ascending addr: addr u32, rank varint)
          | conflicts (ascending root: root u32, ascending u32 set)

   Tables are written as their bindings sorted by key, so the bytes
   are a function of the union-find's content, not of its insertion
   history. *)

module Codec = Store.Codec
module Addr_set = Codec.Int_set (Ipv4.Set) (Ipv4)

let sorted_bindings tbl =
  List.sort (fun (a, _) (b, _) -> Ipv4.compare a b)
    (Ipv4.Tbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let put_addr w a = Codec.put_u32 w (Ipv4.to_int a)
let put_set w s = Addr_set.put w Codec.put_u32 s

let encode w t =
  let table put_v tbl =
    Codec.put_list w
      (fun w (k, v) ->
        put_addr w k;
        put_v w v)
      (sorted_bindings tbl)
  in
  put_set w t.members;
  table put_addr t.parent;
  table Codec.put_varint t.rank;
  table put_set t.conflicts

let addr r = Ipv4.of_int (Codec.u32 r)

let decode r =
  let members = Addr_set.get r ~min_bytes:4 Codec.u32 in
  let table ~min_bytes get =
    let n = Codec.count r ~min_bytes in
    let tbl = Ipv4.Tbl.create n in
    let last = ref (-1) in
    for _ = 1 to n do
      let k = Codec.u32 r in
      if k <= !last then Codec.fail ();
      last := k;
      Ipv4.Tbl.add tbl (Ipv4.of_int k) (get r)
    done;
    tbl
  in
  let parent = table ~min_bytes:8 addr in
  let rank = table ~min_bytes:5 Codec.varint in
  (* Union by rank leaves every parent of higher rank than its child,
     and path compression keeps it so; a table where that fails could
     hold a cycle that [find] would never leave. *)
  let rank_of a = Option.value ~default:0 (Ipv4.Tbl.find_opt rank a) in
  Ipv4.Tbl.iter (fun a p -> if rank_of p <= rank_of a then Codec.fail ()) parent;
  let conflicts = table ~min_bytes:5 (fun r -> Addr_set.get r ~min_bytes:4 Codec.u32) in
  { parent; rank; conflicts; members }
