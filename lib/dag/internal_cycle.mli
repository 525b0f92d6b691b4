(** Internal cycles of a DAG — the paper's central structural notion.

    An {e oriented cycle} of a DAG is a cycle of the underlying undirected
    graph: an even alternation of forward and backward dipath segments.  It
    is {e internal} when every vertex on it has at least one predecessor and
    one successor in the whole DAG (equivalently, the cycle contains no
    source and no sink of the DAG).

    Theorem 1: no internal cycle implies [w = pi] for every dipath family;
    Theorem 2: an internal cycle yields a family with [pi = 2 < 3 = w].
    Detection reduces to finding an undirected cycle in the subgraph induced
    by the "internal" vertices ([indeg > 0] and [outdeg > 0]). *)

open Wl_digraph

type walk = (Digraph.arc * bool) list
(** Closed walk of arcs: [(arc, forward?)]; see
    {!Wl_digraph.Traversal.undirected_cycle}. *)

(** An internal cycle in the canonical alternating form used by Theorems 2
    and 6: [k >= 1] "peak" vertices [b.(i)] (in-degree 0 on the cycle) and
    [k] "valley" vertices [c.(i)] (out-degree 0 on the cycle), joined by
    directed segments [down.(i) : b.(i) ~> c.(i)] and
    [up.(i) : b.(i+1) ~> c.(i)] (indices mod [k]). *)
type canonical = {
  b : Digraph.vertex array;
  c : Digraph.vertex array;
  down : Dipath.t array; (* down.(i) : b.(i) ~> c.(i) *)
  up : Dipath.t array; (* up.(i) : b.(i+1 mod k) ~> c.(i) *)
}

val find : Dag.t -> walk option
(** Some internal cycle as a closed walk, or [None]. *)

val has_internal_cycle : Dag.t -> bool

val count_independent : Dag.t -> int
(** Cyclomatic number [m' - n' + components] of the internal subgraph: the
    number of independent internal cycles.  [0] iff no internal cycle; [1]
    characterizes the "only one internal cycle" case of Theorem 6. *)

val canonicalize : Dag.t -> walk -> canonical
(** Normalizes a closed walk (as returned by {!find}) into the alternating
    form.  Raises [Invalid_argument] on a walk that is not a closed cycle of
    the DAG. *)

val find_canonical : Dag.t -> canonical option
(** [canonicalize] of [find]. *)

val verify_canonical : Dag.t -> canonical -> bool
(** Checks all structural promises of the canonical form (segment endpoints,
    internality of every vertex).  Used by tests. *)

val arcs_of_canonical : canonical -> Digraph.arc list
(** All arcs of the cycle, without duplicates. *)

val pp_canonical : Dag.t -> Format.formatter -> canonical -> unit
