open Netcore

type stats = {
  mutable queries : int;
  mutable requests : int;
  mutable connections : int;
  mutable errors : int;
}

let stats_create () = { queries = 0; requests = 0; connections = 0; errors = 0 }

type ctx = {
  mutable qmap : Qmap.t;
  stats : stats;
  exposition : unit -> string;
  minor_words : unit -> int;
}

let default_minor_words () = int_of_float (Gc.minor_words ())

let ctx_create ?(exposition = fun () -> "# EOF\n") ?(minor_words = default_minor_words)
    qmap =
  { qmap; stats = stats_create (); exposition; minor_words }

(* Error codes carried in status-1 responses. *)
let err_bad_opcode = 1
let err_malformed = 2
let err_oversized = 3

let error_frame wb code message =
  Protocol.wbuf_clear wb;
  Protocol.put_u32 wb (1 + 1 + 2 + String.length message);
  Protocol.put_u8 wb 1;
  Protocol.put_u8 wb code;
  Protocol.put_u16 wb (String.length message);
  Protocol.put_string wb message

(* Decode one request payload at [req.(off .. off+len-1)] and write the
   complete response frame (length prefix included) into [wb]. This is
   the entire per-frame compute — kept free of timing, metrics and I/O
   so the zero-allocation test can drive it directly: an owner batch is
   immediate-int arithmetic over preallocated byte arrays end to end. *)
let handle ctx req ~off ~len wb =
  let stats = ctx.stats in
  stats.requests <- stats.requests + 1;
  if len < 1 then begin
    stats.errors <- stats.errors + 1;
    error_frame wb err_malformed "empty request"
  end
  else begin
    let op = Protocol.get_u8 req off in
    let body = off + 1 and blen = len - 1 in
    if op = Protocol.op_owner then
      if blen land 3 <> 0 then begin
        stats.errors <- stats.errors + 1;
        error_frame wb err_malformed "owner body not a multiple of 4"
      end
      else begin
        let n = blen lsr 2 in
        stats.queries <- stats.queries + n;
        Protocol.wbuf_clear wb;
        Protocol.wbuf_reserve wb (4 + 1 + (4 * n));
        Protocol.put_u32 wb (1 + (4 * n));
        Protocol.put_u8 wb 0;
        for i = 0 to n - 1 do
          let a = Ipv4.of_int (Protocol.get_u32 req (body + (4 * i))) in
          Protocol.put_u32 wb (Qmap.owner ctx.qmap a)
        done
      end
    else if op = Protocol.op_crossings then
      if blen <> 8 then begin
        stats.errors <- stats.errors + 1;
        error_frame wb err_malformed "crossings body must be 8 bytes"
      end
      else begin
        stats.queries <- stats.queries + 1;
        let a = Protocol.get_u32 req body and b = Protocol.get_u32 req (body + 4) in
        let lines = Qmap.crossings ctx.qmap a b in
        Protocol.wbuf_clear wb;
        Protocol.put_u32 wb 0 (* patched below *);
        Protocol.put_u8 wb 0;
        Protocol.put_u32 wb (List.length lines);
        List.iter
          (fun l ->
            Protocol.put_u16 wb (String.length l);
            Protocol.put_string wb l)
          lines;
        Protocol.patch_u32 wb 0 (wb.Protocol.len - 4)
      end
    else if op = Protocol.op_provenance then
      if blen <> 4 then begin
        stats.errors <- stats.errors + 1;
        error_frame wb err_malformed "provenance body must be 4 bytes"
      end
      else begin
        stats.queries <- stats.queries + 1;
        let a = Ipv4.of_int (Protocol.get_u32 req body) in
        Protocol.wbuf_clear wb;
        Protocol.put_u32 wb 0;
        Protocol.put_u8 wb 0;
        (match Qmap.provenance ctx.qmap a with
        | None -> Protocol.put_u8 wb 0
        | Some line ->
          Protocol.put_u8 wb 1;
          Protocol.put_u16 wb (String.length line);
          Protocol.put_string wb line);
        Protocol.patch_u32 wb 0 (wb.Protocol.len - 4)
      end
    else if op = Protocol.op_stats then begin
      Protocol.wbuf_clear wb;
      Protocol.put_u32 wb (1 + 32);
      Protocol.put_u8 wb 0;
      Protocol.put_u64 wb stats.queries;
      Protocol.put_u64 wb stats.requests;
      Protocol.put_u64 wb stats.connections;
      Protocol.put_u64 wb stats.errors
    end
    else if op = Protocol.op_metrics then begin
      let text = ctx.exposition () in
      Protocol.wbuf_clear wb;
      Protocol.put_u32 wb (1 + 4 + String.length text);
      Protocol.put_u8 wb 0;
      Protocol.put_u32 wb (String.length text);
      Protocol.put_string wb text
    end
    else if op = Protocol.op_gcstat then begin
      Protocol.wbuf_clear wb;
      Protocol.put_u32 wb (1 + 16);
      Protocol.put_u8 wb 0;
      Protocol.put_u64 wb (ctx.minor_words ());
      Protocol.put_u64 wb stats.queries
    end
    else begin
      stats.errors <- stats.errors + 1;
      error_frame wb err_bad_opcode (Printf.sprintf "unknown opcode %d" op)
    end
  end

(* ------------------------------------------------------------------ *)
(* The socket event loop.                                             *)

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  wb : Protocol.wbuf;
}

type t = {
  ctx : ctx;
  path : string;
  listen_fd : Unix.file_descr;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  stopped : bool Atomic.t;
  reload_requested : bool Atomic.t;
  reload : (unit -> Qmap.t option) option;
  mutable conns : conn list;
}

let create ?exposition ?minor_words ?reload ~path qmap =
  (* A stale socket file from a killed predecessor would make bind fail;
     it can never be a live server (we would fail to listen anyway), so
     replace it. Only ever unlink sockets — anything else at [path] is
     the caller's mistake and surfaces as EADDRINUSE. *)
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX path);
     Unix.listen listen_fd 16
   with e ->
     Unix.close listen_fd;
     raise e);
  let stop_r, stop_w = Unix.pipe () in
  { ctx = ctx_create ?exposition ?minor_words qmap;
    path;
    listen_fd;
    stop_r;
    stop_w;
    stopped = Atomic.make false;
    reload_requested = Atomic.make false;
    reload;
    conns = [] }

let stats t = t.ctx.stats

(* Signal-handler safe: one atomic store plus a single-byte pipe write
   to wake the select. Idempotent. *)
let stop t =
  if not (Atomic.exchange t.stopped true) then
    try ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ()

(* Same signal-handler-safe shape as {!stop}: flag plus self-pipe wake.
   The actual rebuild runs later, inside the event loop, where it may
   allocate and take time — open connections stall for the rebuild but
   are never dropped. *)
let request_reload t =
  if t.reload <> None then begin
    Atomic.set t.reload_requested true;
    try ignore (Unix.write t.stop_w (Bytes.make 1 'r') 0 1)
    with Unix.Unix_error _ -> ()
  end

(* The self-pipe woke the select: drain it, and if the wake was a
   reload request (not a stop), swap in the freshly compiled map. The
   swap is one mutable-field store of an immutable [Qmap.t] — queries
   before it answer from the old map, queries after from the new one,
   never a torn mix. A reload callback returning [None] (e.g. the map
   file failed to parse) keeps the old map. *)
let handle_wakeups t =
  let b = Bytes.create 16 in
  (try ignore (Unix.read t.stop_r b 0 16) with Unix.Unix_error _ -> ());
  if (not (Atomic.get t.stopped)) && Atomic.exchange t.reload_requested false
  then
    match t.reload with
    | None -> ()
    | Some f -> (
      match f () with
      | Some q ->
        t.ctx.qmap <- q;
        Obs.Metrics.incr "serve.reloads"
      | None -> ())

let write_all fd buf len =
  let off = ref 0 in
  (try
     while !off < len do
       off := !off + Unix.write fd buf !off (len - !off)
     done;
     true
   with Unix.Unix_error _ -> false)

let close_conn t c =
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c' -> c' != c) t.conns

let greeting =
  let b = Bytes.create Protocol.greeting_len in
  Bytes.blit_string Protocol.magic 0 b 0 4;
  Bytes.set b 4 (Char.chr ((Protocol.version lsr 8) land 0xff));
  Bytes.set b 5 (Char.chr (Protocol.version land 0xff));
  b

let accept t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
    t.ctx.stats.connections <- t.ctx.stats.connections + 1;
    if Obs.Metrics.enabled () then Obs.Metrics.incr "serve.connections_total";
    if write_all fd greeting Protocol.greeting_len then
      t.conns <-
        { fd; rbuf = Bytes.create 65536; rlen = 0; wb = Protocol.wbuf_create 65536 }
        :: t.conns
    else (try Unix.close fd with Unix.Unix_error _ -> ())

(* Frame latency is observed per batch class — the least of 1, 8, 64
   and 512 at or above the frame's query count, or "large" — so one
   histogram never blends batch-1 and batch-512 frames. *)
let request_histogram queries =
  if queries <= 1 then "serve.request_seconds.batch_1"
  else if queries <= 8 then "serve.request_seconds.batch_8"
  else if queries <= 64 then "serve.request_seconds.batch_64"
  else if queries <= 512 then "serve.request_seconds.batch_512"
  else "serve.request_seconds.batch_large"

(* Drain every complete frame buffered on [c]. Returns false when the
   connection must be closed (write failure or oversized frame — after
   an oversized declaration the stream can never resynchronize). *)
let drain_frames t c =
  let ok = ref true and continue_ = ref true in
  while !continue_ do
    if c.rlen < 4 then continue_ := false
    else begin
      let flen = Protocol.get_u32 c.rbuf 0 in
      if flen > Protocol.max_frame then begin
        t.ctx.stats.errors <- t.ctx.stats.errors + 1;
        if Obs.Metrics.enabled () then Obs.Metrics.incr "serve.errors_total";
        error_frame c.wb err_oversized (Printf.sprintf "frame of %d bytes" flen);
        ignore (write_all c.fd c.wb.Protocol.buf c.wb.Protocol.len);
        ok := false;
        continue_ := false
      end
      else if c.rlen < 4 + flen then continue_ := false
      else begin
        (* Metrics are per-frame, not per-query: an owner batch of 512
           pays one histogram observation, keeping the hot loop free of
           timing syscalls and allocation. *)
        let instrumented = Obs.Metrics.enabled () in
        let t0 = if instrumented then Obs.Clock.now_ns () else 0 in
        let q0 = t.ctx.stats.queries and e0 = t.ctx.stats.errors in
        handle t.ctx c.rbuf ~off:4 ~len:flen c.wb;
        if instrumented then begin
          let queries = t.ctx.stats.queries - q0 in
          Obs.Metrics.observe (request_histogram queries) (Obs.Clock.seconds_since t0);
          Obs.Metrics.incr "serve.requests_total";
          Obs.Metrics.add "serve.queries_total" queries;
          Obs.Metrics.add "serve.errors_total" (t.ctx.stats.errors - e0)
        end;
        if not (write_all c.fd c.wb.Protocol.buf c.wb.Protocol.len) then begin
          ok := false;
          continue_ := false
        end
        else begin
          let rest = c.rlen - (4 + flen) in
          if rest > 0 then Bytes.blit c.rbuf (4 + flen) c.rbuf 0 rest;
          c.rlen <- rest
        end
      end
    end
  done;
  !ok

let read_conn t c =
  if c.rlen = Bytes.length c.rbuf then begin
    (* Frame larger than the buffer: grow toward max_frame. *)
    let nb = Bytes.create (min (2 * Bytes.length c.rbuf) (4 + Protocol.max_frame)) in
    Bytes.blit c.rbuf 0 nb 0 c.rlen;
    c.rbuf <- nb
  end;
  match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close_conn t c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | 0 -> close_conn t c
  | n ->
    c.rlen <- c.rlen + n;
    if not (drain_frames t c) then close_conn t c

let shutdown t =
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  try Unix.unlink t.path with Unix.Unix_error _ -> ()

let run t =
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      while not (Atomic.get t.stopped) do
        let fds = t.stop_r :: t.listen_fd :: List.map (fun c -> c.fd) t.conns in
        match Unix.select fds [] [] (-1.0) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
          if List.memq t.stop_r ready then handle_wakeups t;
          if not (Atomic.get t.stopped) then begin
            if List.memq t.listen_fd ready then accept t;
            (* Iterate a snapshot: [read_conn] may drop connections. *)
            List.iter (fun c -> if List.memq c.fd ready then read_conn t c) t.conns
          end
      done)
