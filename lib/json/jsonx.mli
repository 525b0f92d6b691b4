(** Minimal JSON values, parser and printer (no external dependencies).

    Backs the machine-readable mirrors of the text formats: instance files
    ({!Wl_core.Serial}) and engine op scripts ({!Wl_engine.Script}).  The
    parser is strict RFC-8259 apart from two deliberate simplifications:
    numbers without [.], [e] or [E] parse as [Int] (everything else as
    [Float]), and [\uXXXX] escapes are encoded to UTF-8 code-point by
    code-point (surrogate pairs are not merged). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Error messages carry the (1-based) line of the offending byte. *)

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents objects and arrays by two
    spaces.  A finite [Float] prints with [%.12g] when that parses back to
    the same float and with all its digits otherwise ([%.17g], or [%.1f]
    for an integral value), so it round-trips exactly, as a [Float]. *)

(** {1 Accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]. *)

val to_int : t -> int option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
