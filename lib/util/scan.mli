(** Token scanner for the line-oriented text formats ([wl] instances,
    [wlreq] request files, [wlops] op scripts).

    The lexical rules are the formats' own: the text splits into lines
    at ['\n']; on each line ['#'] starts a comment; the rest is trimmed
    of [' '], ['\t'], ['\r'] and ['\012'] at both ends and split on
    [' '] into tokens, so a tab or carriage return inside a line stays
    part of its token.  Lines without a token are skipped.

    Tokens are index ranges into the text.  Advancing a line allocates
    nothing once the per-line token buffer has grown to the widest line,
    and neither does {!is}; {!int} allocates only its [Some]. *)

type t

val of_string : string -> t
(** A scanner before the first line of the text. *)

val next : t -> bool
(** Moves to the next line holding a token; [false] at the end of the
    text. *)

val line : t -> int
(** The 1-based number of the current line. *)

val count : t -> int
(** The number of tokens on the current line (at least 1). *)

val is : t -> int -> string -> bool
(** [is s i w]: token [i] of the current line is [w]. *)

val word : t -> int -> string
(** Token [i] as a fresh string. *)

val int : t -> int -> int option
(** Token [i] read as [int_of_string_opt] reads it: an optional ['-']
    and up to 18 decimal digits are converted in place, and anything
    else (["0x1f"], ["+3"], ["1_000"], an overflow) goes through
    [int_of_string_opt], so both accept exactly the same tokens. *)

val ints : t -> int -> (int list, int) result
(** [ints s i]: tokens [i] to the last, in order, as {!int} reads them;
    [Error j] names the first token [j] that is not an integer. *)
