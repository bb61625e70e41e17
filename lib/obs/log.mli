(** A minimal leveled logger for the CLI layer. Messages go to stderr
    (never stdout: inference output must stay byte-identical at any
    verbosity), prefixed with the level. Formatting of suppressed
    messages is skipped via [ifprintf], so a disabled level costs one
    comparison per call. *)

type level = Quiet | Warn | Info

val set_level : level -> unit

(** [set_verbosity n] maps a CLI count to a level: negative = [Quiet],
    0 = [Warn] (the default), 1 or more = [Info]. *)
val set_verbosity : int -> unit

val level : unit -> level
val warn : ('a, Format.formatter, unit) format -> 'a
val info : ('a, Format.formatter, unit) format -> 'a
