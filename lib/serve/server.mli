(** The long-lived query server: a single-domain [select] loop over a
    Unix-domain stream socket, answering {!Protocol} frames from a
    {!Qmap}.

    Design points:
    - {b Zero-alloc hot path.} Per-connection read and write buffers
      are reused across frames; {!handle} — the entire per-frame
      compute — touches only immediate ints and preallocated byte
      arrays on the owner path, and is exposed here so the
      [Gc.minor_words]-delta test can pin that.
    - {b Per-frame instrumentation.} When {!Obs.Metrics} is enabled the
      loop records [serve.queries_total] / [serve.requests_total] /
      [serve.errors_total] / [serve.connections_total] counters and
      [serve.request_seconds.batch_<N>] log-bucket histograms, one per
      batch class (a frame's query count rounded up to 1, 8, 64 or
      512, else [large]) — once per frame, never per query, so
      instrumentation cannot re-introduce per-query allocation.
    - {b Clean teardown.} {!stop} is signal-handler safe (one atomic
      store + a self-pipe write waking the select); however {!run}
      exits — including on an exception — every connection and the
      listener are closed and the socket file is unlinked, so a
      SIGTERM mid-query leaves no stale socket behind. *)

type stats = {
  mutable queries : int;
  mutable requests : int;
  mutable connections : int;
  mutable errors : int;
}

(** What {!handle} answers from: the query map, the live counters, the
    OpenMetrics exposition for {!Protocol.op_metrics} and the
    minor-words sampler for {!Protocol.op_gcstat} (defaults to this
    domain's [Gc.minor_words]). *)
type ctx

val ctx_create :
  ?exposition:(unit -> string) -> ?minor_words:(unit -> int) -> Qmap.t -> ctx

(** [handle ctx req ~off ~len wb] decodes the request payload at
    [req.(off..off+len-1)] and writes the complete response frame
    (length prefix included) into [wb]. Malformed bodies and unknown
    opcodes become status-1 error responses, never exceptions. *)
val handle : ctx -> Bytes.t -> off:int -> len:int -> Protocol.wbuf -> unit

type t

(** [create ~path qmap] binds and listens on the Unix-domain socket at
    [path], replacing a stale socket file left by a killed predecessor
    (only ever unlinking sockets — any other file there surfaces as the
    bind error it is).

    [?reload] compiles a replacement query map when {!request_reload}
    fires (e.g. from a SIGHUP handler). It runs inside the event loop —
    free to allocate and take time — and its result is swapped in with
    a single store, so open connections stall during the rebuild but
    are never dropped, and no query ever sees a torn map. Returning
    [None] (a failed rebuild) keeps the current map. Each successful
    swap bumps the [serve.reloads] counter. *)
val create :
  ?exposition:(unit -> string) ->
  ?minor_words:(unit -> int) ->
  ?reload:(unit -> Qmap.t option) ->
  path:string ->
  Qmap.t ->
  t

val stats : t -> stats

(** [run t] serves until {!stop}; always tears down (closes every fd,
    unlinks the socket) on the way out, exception or not. *)
val run : t -> unit

(** [stop t] wakes and terminates {!run}. Idempotent; safe from a
    signal handler or another domain. *)
val stop : t -> unit

(** [request_reload t] asks the event loop to rebuild and swap the
    query map via [create]'s [?reload] callback. Safe from a signal
    handler or another domain; a no-op when no callback was given. *)
val request_reload : t -> unit
