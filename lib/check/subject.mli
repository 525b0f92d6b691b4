(** The unit of fuzzing: an instance plus an optional engine op script.

    Every oracle checks a subject; the shrinker mutates subjects.  A
    subject with an empty op script is just an instance (the Theorem 1 /
    Theorem 6 / serializer oracles); the engine oracle carries the op
    sequence it replays against a session.

    A subject round-trips through {!parts} — the raw
    (vertex count, arcs, path vertex sequences, ops) quadruple — which is
    what delta debugging edits: {!of_parts} re-validates everything and
    returns [None] when a mutation broke the instance (directed cycle,
    dangling path), so the shrinker can propose arbitrary deletions and
    keep only the well-formed ones. *)

open Wl_core
module Engine = Wl_engine.Engine

type t = private {
  inst : Instance.t;
  ops : Engine.op list;  (** [[]] for instance-only subjects *)
}

val make : ?ops:Engine.op list -> Instance.t -> t

(** {1 Raw parts, the shrinker's representation} *)

type parts = {
  n_vertices : int;
  arcs : (int * int) list;  (** in arc-id order *)
  paths : int list list;  (** vertex sequences, in family order *)
  ops : Engine.op list;
}

val to_parts : t -> parts

val of_parts : parts -> t option
(** Re-validate: [None] when the arcs are not a simple DAG or a path is
    not a dipath of the rebuilt graph.  Vertex labels are dropped — shrunk
    reproducers are anonymous by design. *)

(** {1 Sizes} *)

val n_vertices : t -> int
val n_paths : t -> int
val n_ops : t -> int

(** {1 Serialization}

    The instance renders through {!Wl_core.Serial} (text format, version
    2) and the ops through {!Wl_engine.Script}; a reproducer is one [.wl]
    file plus, when the op script is non-empty, a sibling [.wlops]. *)

val wl_string : t -> string
val ops_string : t -> string option

val write : prefix:string -> t -> string list
(** Write [prefix.wl] (and [prefix.wlops] when ops are present); returns
    the paths written. *)

val read : wl:string -> (t, Error.t) result
(** Read a [.wl] file; a sibling op script (same path with the [.wl]
    suffix replaced by [.wlops]) is loaded when present. *)
