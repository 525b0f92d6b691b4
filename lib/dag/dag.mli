(** Validated directed acyclic graphs.

    A [Dag.t] wraps a {!Wl_digraph.Digraph.t} together with a topological
    order, established once at construction; the wrapper is the precondition
    carrier for every algorithm in the paper (all of which assume a DAG). *)

open Wl_digraph

type t

val of_digraph : Digraph.t -> (t, string) result
(** Fails with a description (including a directed-cycle witness) when the
    graph is not acyclic. *)

val of_digraph_exn : Digraph.t -> t
(** For graphs acyclic by construction (generators, figures, acyclicity
    already checked); raises [Invalid_argument] on a cyclic graph.  This
    library sits below [Wl_core.Error], so untrusted input goes through
    {!of_digraph} or [Wl_core.Instance.of_digraph]. *)

val graph : t -> Digraph.t
(** The underlying digraph. Callers must not mutate it (adding arcs would
    invalidate the cached topological order). *)

val n_vertices : t -> int
val n_arcs : t -> int

val topo_position : t -> Digraph.vertex -> int
(** Position of a vertex in the cached topological order. *)

val sources : t -> Digraph.vertex list
(** Vertices of in-degree 0, in topological order. *)

val sinks : t -> Digraph.vertex list
(** Vertices of out-degree 0, in topological order. *)

val longest_path_length : t -> int
(** Number of arcs on a longest dipath (0 for an arc-less graph). *)

val count_dipaths_from : t -> Digraph.vertex -> Wl_util.Saturating.t array
(** [count_dipaths_from d v] counts, for every vertex [w], the dipaths from
    [v] to [w] ([1] for [w = v]); counts saturate rather than overflow. *)

val all_dipaths_between :
  ?limit:int -> t -> Digraph.vertex -> Digraph.vertex -> Dipath.t list
(** Enumerate the dipaths from [src] to [dst] (at most [limit] of them,
    default 64) in lexicographic successor order. *)

val arcs_by_tail_topo : t -> Digraph.arc array
(** All arc ids sorted by topological position of their tail (ties broken by
    arc id).  Scanning this array in reverse and inserting arcs one by one
    maintains the invariant of the Theorem 1 proof: the next arc to insert
    always leaves a source of the current partial graph. *)
