(* Dead-export check: every value a lib/ interface exports must be named
   by some other compilation unit of lib/, bin/, bench/, perfbench/,
   examples/ or test/, or sit on the allowlist below with its reason.

   It reads the typed trees dune writes (.cmti for the exported values,
   .cmt for the references), so a name counts only where the type
   checker resolved it to that value: local module aliases
   ([module R = Aliasres.Alias_graph], [let module]) are followed, and a
   module used as a whole (functor argument, [include], first-class
   packing) uses every value it has. [open M] uses nothing by itself.

   Usage: dead_exports.exe BUILD_ROOT, where BUILD_ROOT is the compiled
   tree (_build/default). Every .ml under the scanned directories there
   must have its .cmt: a missing one would hide its references, so it
   fails the check instead. *)

let scan_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

(* Exports kept with no caller outside their own unit: (value, reason). *)
let allowlist : (string * string) list = []

(* Dotted components of a module path, with dune's [Lib__Mod] mangling
   split so that [Bdrmap__Collect] and [Bdrmap.Collect] agree. *)
let components name =
  let n = String.length name in
  let rec go acc start i =
    let piece () = if i > start then String.sub name start (i - start) :: acc else acc in
    if i >= n then List.rev (piece ())
    else if i + 1 < n && name.[i] = '_' && name.[i + 1] = '_' then
      go (piece ()) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  go [] 0 0

let rec is_prefix p l =
  match (p, l) with
  | [], _ -> true
  | x :: p, y :: l -> x = y && is_prefix p l
  | _ :: _, [] -> false

(* Sources outside dune's dot directories, compiled units inside their
   [.objs/byte] (or [.eobjs/byte]) directories, each with the source
   directory it belongs to. *)
let rec walk dir ~ml ~cm =
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then begin
        let byte = Filename.concat path "byte" in
        if name.[0] <> '.' then walk path ~ml ~cm
        else if Filename.check_suffix name "objs" && Sys.file_exists byte then
          Array.iter (fun f -> cm dir (Filename.concat byte f)) (Sys.readdir byte)
      end
      else if Filename.check_suffix name ".ml" then ml dir name)
    (Sys.readdir dir)

(* Target path -> the units naming it, for values and for whole modules. *)
type refs = {
  named : (string list, string list list) Hashtbl.t;
  whole : (string list, string list list) Hashtbl.t;
}

let add tbl key unit =
  let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  if not (List.mem unit prev) then Hashtbl.replace tbl key (unit :: prev)

let alias_target (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
    Some p
  | _ -> None

(* Record every value and whole module one implementation names. *)
let scan_impl refs unit (str : Typedtree.structure) =
  let aliases = Hashtbl.create 16 in
  let rec resolve : Path.t -> string list option = function
    | Pident id when Ident.persistent id -> Some (components (Ident.name id))
    | Pident id -> Option.bind (Hashtbl.find_opt aliases (Ident.unique_name id)) resolve
    | Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (resolve p)
    | Papply _ | Pextra_ty _ -> None
  in
  let note tbl p = Option.iter (fun key -> add tbl key unit) (resolve p) in
  let bind id me =
    match (id, alias_target me) with
    | Some id, Some p ->
      Hashtbl.replace aliases (Ident.unique_name id) p;
      true
    | _ -> false
  in
  let open Tast_iterator in
  let module_binding it (mb : Typedtree.module_binding) =
    if not (bind mb.mb_id mb.mb_expr) then default_iterator.module_binding it mb
  in
  let expr it (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> note refs.named p
    | Texp_letmodule (id, _, _, me, body) when bind id me -> it.expr it body
    | _ -> default_iterator.expr it e
  in
  let module_expr it (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> note refs.whole p
    | _ -> default_iterator.module_expr it me
  in
  let open_declaration it (od : Typedtree.open_declaration) =
    match od.open_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> default_iterator.open_declaration it od
  in
  let it = { default_iterator with module_binding; expr; module_expr; open_declaration } in
  it.structure it str

(* Every value an interface declares, in nested [sig ... end] modules
   too. A module typed by a signature path ([module Set : Set.S with
   ...]) declares nothing here: its values are that signature's. *)
let rec exports prefix (sg : Typedtree.signature) acc =
  List.fold_left
    (fun acc (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> (prefix @ [ Ident.name vd.val_id ], vd.val_loc) :: acc
      | Tsig_module { md_id = Some id; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
        exports (prefix @ [ Ident.name id ]) sg acc
      | _ -> acc)
    acc sg.sig_items

let () =
  let root =
    match Sys.argv with
    | [| _; r |] -> r
    | _ ->
      prerr_endline "usage: dead_exports.exe BUILD_ROOT";
      exit 2
  in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf fmt
  in
  let sources = ref [] and cms = ref [] in
  List.iter
    (fun d ->
      let dir = Filename.concat root d in
      if Sys.file_exists dir then
        walk dir
          ~ml:(fun dir name -> sources := (dir, name) :: !sources)
          ~cm:(fun dir f -> cms := (dir, f) :: !cms)
      else fail "missing directory %s\n" dir)
    scan_dirs;
  (* A source's .cmt is [<unit>.cmt] or [<prefix>__<Unit>.cmt] in its
     own directory's objs. *)
  List.iter
    (fun (dir, ml) ->
      let unit = String.lowercase_ascii (Filename.chop_suffix ml ".ml") in
      let is_its_cmt (d, f) =
        d = dir
        && Filename.check_suffix f ".cmt"
        &&
        let b = String.lowercase_ascii (Filename.(chop_suffix (basename f) ".cmt")) in
        b = unit || String.ends_with ~suffix:("__" ^ unit) b
      in
      if not (List.exists is_its_cmt !cms) then
        fail "missing .cmt for %s\n" (Filename.concat dir ml))
    !sources;
  let refs = { named = Hashtbl.create 4096; whole = Hashtbl.create 256 } in
  let exported = ref [] in
  let lib = Filename.concat root "lib" in
  List.iter
    (fun (dir, f) ->
      let in_lib = dir = lib || String.starts_with ~prefix:(lib ^ "/") dir in
      if Filename.check_suffix f ".cmt" then begin
        let c = Cmt_format.read_cmt f in
        match c.cmt_annots with
        | Implementation str -> scan_impl refs (components c.cmt_modname) str
        | _ -> ()
      end
      else if in_lib && Filename.check_suffix f ".cmti" then begin
        let c = Cmt_format.read_cmt f in
        match c.cmt_annots with
        | Interface sg ->
          let unit = components c.cmt_modname in
          exported := List.map (fun e -> (unit, e)) (exports unit sg []) @ !exported
        | _ -> ()
      end)
    !cms;
  let from_elsewhere unit = List.exists (fun u -> u <> unit) in
  let used unit key =
    (match Hashtbl.find_opt refs.named key with
     | Some us -> from_elsewhere unit us
     | None -> false)
    || Hashtbl.fold
         (fun m us acc -> acc || (m <> key && is_prefix m key && from_elsewhere unit us))
         refs.whole false
  in
  let dead =
    List.filter_map
      (fun (unit, (key, loc)) ->
        if used unit key then None else Some (String.concat "." key, loc))
      !exported
    |> List.sort compare
  in
  List.iter
    (fun (name, (loc : Location.t)) ->
      if not (List.mem_assoc name allowlist) then
        fail "dead export: %s (%s:%d): no other compilation unit names it\n" name
          loc.loc_start.pos_fname loc.loc_start.pos_lnum)
    dead;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name dead) then
        fail "stale allowlist entry: %s is gone or now has a caller\n" name)
    allowlist;
  Printf.printf "dead_exports: %d exported lib/ values, %d allowlisted, %d failures\n"
    (List.length !exported) (List.length allowlist) !failures;
  if !failures > 0 then exit 1
