(** The read side of {!Span}: parse a JSONL trace back into typed
    records, canonicalize away the volatile fields, and fold the span
    stream into a per-VP / per-stage call tree.

    Parsing is tolerant exactly where a production trace can be
    damaged: a malformed {e final} line is the signature of a run that
    died mid-record, so it is dropped and surfaced through
    [t.truncated]; a malformed {e interior} line is a hard typed error
    naming the line ({!error}, in the style of [Store.miss]). Nothing
    in this module raises on bad input.

    Volatile fields — [wall_ns] and every [gc_*] delta — are
    classified here, by name, not by position, so golden fixtures and
    diffs no longer depend on the emitter's field order. *)

(** One trace record: its ["type"] plus the remaining fields in
    emission order. *)
type record = { kind : string; fields : (string * Json.t) list }

type err =
  | Garbage of string  (** line is not JSON *)
  | Not_object  (** line is JSON, but not an object *)
  | Missing_kind  (** object has no string ["type"] field *)

type error = { line : int; err : err }

val err_label : err -> string
val error_to_string : error -> string

type t = {
  records : record list;
  truncated : bool;  (** a malformed final line was dropped *)
}

val parse_line : string -> (record, err) result

(** Blank lines and [#] comment lines are skipped. *)
val of_lines : string list -> (t, error) result

(** [render r] re-renders a record byte-identically to what {!Span}
    emitted (field order preserved). *)
val render : record -> string

(** [canonical r] renders [r] with every volatile field removed — the
    deterministic residue golden fixtures pin. *)
val canonical : record -> string

(** {1 Typed span view} *)

type span = {
  stage : string;
  vp : string option;
  seq : int;
  sim_start_s : float;
  sim_end_s : float;
  gc_minor_words : int;
  gc_major_words : int;
  gc_compactions : int;  (** GC fields are 0 for pre-schema traces *)
  wall_ns : int;
}

(** {1 Per-stage call tree} *)

type stage_stat = {
  ss_stage : string;
  ss_count : int;
  ss_wall_ns : int;
  ss_sim_s : float;  (** summed simulated-clock interval *)
  ss_minor_words : int;
  ss_major_words : int;
  ss_compactions : int;
}

type vp_group = { vg_vp : string option; vg_stages : stage_stat list }

type summary = {
  sm_vps : vp_group list;  (** first-seen VP order; stages likewise *)
  sm_fires : (string * int) list;  (** heuristic -> fire count *)
  sm_events : (string * int) list;  (** non-span record kinds *)
  sm_spans : int;
  sm_records : int;
  sm_truncated : bool;
}

val summarize : t -> summary

(** [report_lines ?volatile sm] renders the `obs report` table.
    [~volatile:false] omits the wall-clock and GC columns, leaving
    only deterministic output (what the report golden pins). *)
val report_lines : ?volatile:bool -> summary -> string list
