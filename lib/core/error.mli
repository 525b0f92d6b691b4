(** Structured errors for the result-typed public API.

    Every fallible entry point of the stable surface ({!Serial} parsing,
    {!Instance} construction, dipath validation, solver preconditions, the
    {!Wl_engine.Engine} session ops) reports one of these constructors
    instead of a bare string or an exception; [_exn] wrappers remain for
    callers that prefer raising.  Each constructor maps to a distinct CLI
    exit code ({!exit_code}), so shell scripts can dispatch on the status of
    [wl] without parsing stderr. *)

type t =
  | Parse of { line : int; msg : string }
      (** Text/JSON format errors; [line] is 1-based, [0] when unknown. *)
  | Invalid_path of string  (** Dipath validation failed. *)
  | Cyclic of string  (** A digraph that must be a DAG has a directed cycle. *)
  | Bad_index of { what : string; index : int }
      (** Path / arc / vertex index out of range or no longer live. *)
  | Invalid_op of string  (** Engine op rejected (dead path, duplicate arc, ...). *)
  | Precondition of string  (** Documented precondition violated. *)
  | Unsupported_version of int  (** Serial format version from the future. *)
  | Io of string

exception Error of t

val to_string : t -> string

val exit_code : t -> int
(** Distinct per constructor: Parse 65, Cyclic 66, Invalid_path 67,
    Bad_index 68, Invalid_op 69, Precondition 70, Unsupported_version 71,
    Io 74. *)

val to_code : t -> int
(** The on-wire error code of the [wlrpc/1] protocol — {e equal} to
    {!exit_code} by construction, so a client that exits with the code from
    an error frame behaves exactly like the CLI hitting the same error
    locally.  Wire, CLI and library share this one namespace; the
    exhaustiveness test pins the agreement per constructor. *)

val of_code : int -> string -> t option
(** [of_code code msg] reconstructs the constructor behind a wire code and
    its {!to_string} rendering ([None] for an unknown code).  Structured
    payloads (parse line, bad index, version) are parsed back out of the
    stable rendering, so [of_code (to_code e) (to_string e)] recovers [e]
    itself for every constructor. *)

val raise_error : t -> 'a
(** Raise as the {!Error} exception. *)
