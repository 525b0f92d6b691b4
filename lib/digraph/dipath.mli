(** Dipaths: directed paths in a digraph.

    A dipath is a sequence of at least two distinct vertices
    [x1, x2, ..., xk] such that every [(xi, xi+1)] is an arc; it is the unit
    of demand in the paper ("requests" are satisfied by dipaths, wavelengths
    are assigned to dipaths).  Values are immutable and tied to the graph
    they were validated against (the arc ids are cached). *)

type t

val of_vertices : Digraph.t -> Digraph.vertex list -> (t, string) result
(** Validates the vertex sequence: at least two vertices, all in range, no
    repeated vertex, every consecutive pair an arc.  The primary,
    exception-free constructor. *)

val make : Digraph.t -> Digraph.vertex list -> t
(** {!of_vertices}, raising [Invalid_argument] on invalid input. *)

val of_arcs : Digraph.t -> Digraph.arc list -> t
(** Builds a dipath from a non-empty chain of arc ids (each arc's head must
    be the next arc's tail). *)

val vertices : t -> Digraph.vertex list
(** The vertex sequence, in order. *)

val arcs : t -> Digraph.arc list
(** The arc ids, in order. *)

val arc_array : t -> Digraph.arc array
(** Fresh array of the arc ids, in order. *)

val unsafe_arc_array : t -> Digraph.arc array
(** The arc ids {e borrowed}, in order — the dipath's own backing array,
    shared to keep hot consumers (solver state binding, engine
    occupancy) allocation-free.  Callers must never mutate it; validity
    is tied to the dipath's lifetime. *)

val src : t -> Digraph.vertex
val dst : t -> Digraph.vertex

val n_arcs : t -> int
(** Length in arcs (>= 1). *)

val mem_arc : t -> Digraph.arc -> bool

val vertex_index : t -> Digraph.vertex -> int option
(** Position of a vertex in the sequence. *)

val shares_arc : t -> t -> bool
(** Whether the two dipaths conflict, i.e. have an arc in common. *)

val intersection_interval :
  Digraph.t -> t -> t -> (Digraph.vertex * Digraph.vertex) option
(** When the common arcs of the two dipaths form a single contiguous
    interval on both, the endpoints [(x, y)] of that interval (in dipath
    direction).  [None] if the dipaths do not share an arc.  Raises
    [Invalid_argument] when the shared arcs are not one contiguous interval
    (which cannot happen in a UPP-DAG, by Property 3 of the paper). *)

val equal : t -> t -> bool
(** Same vertex sequence. *)

val pp : Digraph.t -> Format.formatter -> t -> unit
(** Prints using vertex labels: [a -> b -> c]. *)

val to_string : Digraph.t -> t -> string
