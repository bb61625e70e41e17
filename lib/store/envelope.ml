type error =
  | Absent
  | Truncated
  | Bad_magic
  | Bad_version of int
  | Stale
  | Corrupt

let error_label = function
  | Absent -> "absent"
  | Truncated -> "truncated"
  | Bad_magic -> "bad-magic"
  | Bad_version v -> Printf.sprintf "bad-version-%d" v
  | Stale -> "stale"
  | Corrupt -> "corrupt"

type format = { magic : string; version : int }

let header_len = 32

let create n = Bytes.create (header_len + n)

let seal ?len fmt b =
  let len = Option.value len ~default:(Bytes.length b) - header_len in
  Bytes.blit_string fmt.magic 0 b 0 4;
  Bytes.set_int32_be b 4 (Int32.of_int fmt.version);
  Bytes.blit_string (Digest.subbytes b header_len len) 0 b 8 16;
  Bytes.set_int64_be b 24 (Int64.of_int len)

(* Every field is checked before the next is trusted; the declared
   length must match the image exactly, so no count read from it ever
   sizes an allocation or an offset. *)
let unseal fmt s =
  let n = String.length s in
  if n < header_len then Error Truncated
  else if String.sub s 0 4 <> fmt.magic then Error Bad_magic
  else
    let v = Int32.to_int (String.get_int32_be s 4) land 0xFFFF_FFFF in
    if v <> fmt.version then Error (Bad_version v)
    else
      let len = Int64.to_int (String.get_int64_be s 24) in
      if len <> n - header_len then Error Truncated
      else if Digest.substring s header_len len <> String.sub s 8 16 then
        Error Corrupt
      else Ok (header_len, len)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> Error Absent
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Ok s
        | exception End_of_file -> Error Truncated
        | exception Sys_error _ -> Error Absent)

(* Unique within the process (counter + domain) and across processes
   (pid); collisions would let two writers interleave into one temp
   file, which the rename would then publish torn. *)
let tmp_counter = Atomic.make 0

let publish path write =
  let tmp =
    Printf.sprintf "%s.tmp-%d-%d-%d" path (Unix.getpid ())
      (Domain.self () :> int)
      (Atomic.fetch_and_add tmp_counter 1)
  in
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         write oc;
         (* Flushes: a full disk raises here, before the rename. *)
         close_out oc)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let is_tmp name =
  (* "<name>.tmp-<pid>-<dom>-<n>" *)
  match String.rindex_opt name '.' with
  | None -> false
  | Some i -> String.length name > i + 4 && String.sub name (i + 1) 4 = "tmp-"
