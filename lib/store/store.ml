module Envelope = Envelope
module Codec = Codec

type t = { dir : string }

(* v2: entries moved onto the shared envelope (the key leads the
   payload, under the digest). *)
let format_version = 2
let fmt = { Envelope.magic = "BDRS"; version = format_version }
let key_len = 32
let entry_ext = ".run"

let ensure_dir dir =
  try Unix.mkdir dir 0o755
  with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ()

let open_dir dir =
  ensure_dir dir;
  { dir }

let dir t = t.dir

type miss = Envelope.error =
  | Absent | Truncated | Bad_magic | Bad_version of int | Stale | Corrupt

let miss_label = Envelope.error_label

let path t key = Filename.concat t.dir (key ^ entry_ext)

(* [key] is the key the caller asked for; the embedded key catches
   entries copied or renamed under the wrong name. *)
let decode ~key s =
  Result.bind (Envelope.unseal fmt s) (fun (pos, len) ->
      if len < key_len then Error Corrupt
      else if String.sub s pos key_len <> key then Error Stale
      else Ok (s, pos + key_len, len - key_len))

let read_entry file ~key = Result.bind (Envelope.read_file file) (decode ~key)

let valid_key key =
  String.length key = key_len
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       key

let read t ~key =
  if not (valid_key key) then invalid_arg "Store.read: malformed key";
  read_entry (path t key) ~key

(* The entry is encoded straight into its image: the header is sealed
   over the writer's reserved prefix, and the file gets the bytes
   written, not the writer's spare capacity. *)
let write t ~key encode =
  if not (valid_key key) then invalid_arg "Store.write: malformed key";
  let w = Codec.writer ~at:Envelope.header_len (key_len + 4096) in
  Codec.put_raw w key;
  encode w;
  let image, len = Codec.contents w in
  Envelope.seal ~len fmt image;
  Envelope.publish (path t key) (fun oc -> output oc image 0 len);
  len

let entries t =
  let names =
    match Sys.readdir t.dir with
    | exception Sys_error _ -> [||]
    | a -> a
  in
  Array.to_list names
  |> List.filter_map (fun name ->
         if not (Filename.check_suffix name entry_ext) then None
         else
           let key = Filename.chop_suffix name entry_ext in
           let file = Filename.concat t.dir name in
           let bytes =
             match (Unix.stat file).Unix.st_size with
             | n -> n
             | exception Unix.Unix_error _ -> 0
           in
           let status =
             if not (valid_key key) then Some Bad_magic
             else Result.fold ~ok:(fun _ -> None) ~error:Option.some
                    (read_entry file ~key)
           in
           Some (key, bytes, status))
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

type gc_stats = { gc_removed : int; gc_kept : int; gc_bytes_freed : int }

let gc ?(all = false) t =
  let removed = ref 0 and kept = ref 0 and bytes = ref 0 in
  let rm file =
    (* Size first: after the remove there is nothing left to measure. *)
    let size = try (Unix.stat file).Unix.st_size with Unix.Unix_error _ -> 0 in
    try
      Sys.remove file;
      incr removed;
      bytes := !bytes + size
    with Sys_error _ -> ()
  in
  (match Sys.readdir t.dir with
   | exception Sys_error _ -> ()
   | names ->
     Array.iter
       (fun name ->
         if Envelope.is_tmp name then rm (Filename.concat t.dir name))
       names);
  List.iter
    (fun (key, _, status) ->
      if all || status <> None then rm (path t key) else incr kept)
    (entries t);
  { gc_removed = !removed; gc_kept = !kept; gc_bytes_freed = !bytes }
