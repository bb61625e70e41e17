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
