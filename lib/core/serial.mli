(** Instance (de)serialization: the line-oriented text format and its JSON
    mirror.

    The text format is line-oriented; [#] starts a comment, blank lines are
    ignored:

    {v
    wl 2                 # optional version header (version 2+)
    dag 5                # vertex count, must come before the body
    vlabel 0 a1          # optional, any number of these
    arc 0 1
    arc 1 2
    path 0 1 2           # a dipath as a vertex sequence
    v}

    Version 1 files have no [wl] header; readers accept both.  Writers
    default to version 2 ([wl 2] header); pass [~version:1] for the legacy
    headerless output, byte-identical to what older releases produced.

    The JSON mirror carries the same data:

    {v
    { "format": "wl-instance", "version": 2, "vertices": 5,
      "labels": { "0": "a1" },
      "arcs": [[0, 1], [1, 2]],
      "paths": [[0, 1, 2]] }
    v} *)

val to_string : ?version:int -> Instance.t -> string
(** Renders the text format, by default in the current version (2).
    Raises [Invalid_argument] on an unknown [version] (valid: 1 or 2). *)

val of_string : string -> (Instance.t, Error.t) result
(** Parses the text format, either version.  Errors: [Parse] with the
    offending 1-based line number, [Unsupported_version] for a [wl N] header
    beyond the current version, [Cyclic] when the arcs close a directed
    cycle, [Invalid_path] when a [path] line is not a dipath of the graph. *)

val to_json : ?pretty:bool -> Instance.t -> string
(** Renders the JSON mirror (always the current version). *)

val of_json : string -> (Instance.t, Error.t) result
(** Parses the JSON mirror.  Same error domain as {!of_string}; JSON syntax
    errors surface as [Parse]. *)

val write_file : string -> Instance.t -> unit
(** Writes the text format in the current version.  Raises [Sys_error]. *)

val read_file : string -> (Instance.t, Error.t) result
(** Reads either format, sniffing JSON by a leading ['{'].  I/O failures
    surface as [Io]. *)
