type sink = { emit : string -> unit; close : unit -> unit }

(* The installed sink is read from worker domains on every record, so it
   lives in an atomic for safe publication. *)
let current : sink option Atomic.t = Atomic.make None
let seq = Atomic.make 0
let emitted = Atomic.make 0

let set_sink s = Atomic.set current s
let sink_active () = Atomic.get current <> None

let close_sink () =
  match Atomic.get current with
  | None -> ()
  | Some s ->
    Atomic.set current None;
    s.close ()

let records_emitted () = Atomic.get emitted
let reset_emitted () = Atomic.set emitted 0

let file_sink path =
  let oc = open_out path in
  let m = Mutex.create () in
  { emit =
      (fun line ->
        Mutex.lock m;
        output_string oc line;
        output_char oc '\n';
        Mutex.unlock m);
    close =
      (fun () ->
        Mutex.lock m;
        close_out oc;
        Mutex.unlock m) }

let memory_sink () =
  let m = Mutex.create () in
  let lines = ref [] in
  ( { emit =
        (fun line ->
          Mutex.lock m;
          lines := line :: !lines;
          Mutex.unlock m);
      close = (fun () -> ()) },
    fun () -> List.rev !lines )

type v = S of string | I of int | F of float | B of bool

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_field buf (name, v) =
  Buffer.add_string buf ",\"";
  add_escaped buf name;
  Buffer.add_string buf "\":";
  match v with
  | S s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | I n -> Buffer.add_string buf (string_of_int n)
  | F f -> Buffer.add_string buf (Printf.sprintf "%g" f)
  | B b -> Buffer.add_string buf (if b then "true" else "false")

let emit_record sink ~kind fields =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"type\":\"";
  add_escaped buf kind;
  Buffer.add_char buf '"';
  List.iter (add_field buf) fields;
  Buffer.add_char buf '}';
  Atomic.incr emitted;
  sink.emit (Buffer.contents buf)

let event ~kind fields =
  match Atomic.get current with
  | None -> ()
  | Some sink -> emit_record sink ~kind fields

let finish_span sink_opt ~stage ~vp ~sim_start ~sim_end ~wall_ns ~gc_minor
    ~gc_major ~gc_compactions =
  Metrics.incr ("stage." ^ stage ^ ".count");
  Metrics.add ("stage." ^ stage ^ ".wall_ns") wall_ns;
  Metrics.add ("stage." ^ stage ^ ".sim_us")
    (int_of_float ((sim_end -. sim_start) *. 1e6));
  Metrics.add ("stage." ^ stage ^ ".gc_minor_words") gc_minor;
  Metrics.add ("stage." ^ stage ^ ".gc_major_words") gc_major;
  Metrics.add ("stage." ^ stage ^ ".gc_compactions") gc_compactions;
  match sink_opt with
  | None -> ()
  | Some sink ->
    let n = Atomic.fetch_and_add seq 1 in
    let base =
      match vp with None -> [] | Some v -> [ ("vp", S v) ]
    in
    (* Volatile fields (GC deltas, then wall_ns) stay last by
       convention, but readers must not rely on it: Trace_reader
       canonicalizes by field name. *)
    emit_record sink ~kind:"span"
      (("stage", S stage)
       :: base
      @ [ ("seq", I n); ("sim_start_s", F sim_start); ("sim_end_s", F sim_end);
          ("gc_minor_words", I gc_minor); ("gc_major_words", I gc_major);
          ("gc_compactions", I gc_compactions); ("wall_ns", I wall_ns) ])

let with_span ~stage ?vp ?sim f =
  let sink_opt = Atomic.get current in
  if sink_opt = None && not (Metrics.enabled ()) then f ()
  else begin
    let simf = match sim with Some g -> g | None -> fun () -> 0.0 in
    let sim_start = simf () in
    (* Minor words come from Gc.minor_words, the one read that counts
       the running domain's current minor heap in full (on OCaml 5.1
       Gc.counters reads it at about an eighth, and quick_stat only
       merges at GC slices). Major words come from Gc.counters;
       quick_stat is still consulted for the compaction count, which is
       only bumped at stop-the-world events anyway. All are cheap
       reads, and all happen only on the obs-enabled path. *)
    let minor0 = Gc.minor_words () in
    let _, _, major0 = Gc.counters () in
    let compactions0 = (Gc.quick_stat ()).Gc.compactions in
    let wall0 = Unix.gettimeofday () in
    let record () =
      let wall_ns = int_of_float ((Unix.gettimeofday () -. wall0) *. 1e9) in
      let minor1 = Gc.minor_words () in
      let _, _, major1 = Gc.counters () in
      finish_span sink_opt ~stage ~vp ~sim_start ~sim_end:(simf ()) ~wall_ns
        ~gc_minor:(int_of_float (minor1 -. minor0))
        ~gc_major:(int_of_float (major1 -. major0))
        ~gc_compactions:((Gc.quick_stat ()).Gc.compactions - compactions0)
    in
    match f () with
    | r ->
      record ();
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      record ();
      Printexc.raise_with_backtrace e bt
  end
