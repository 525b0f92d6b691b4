(** Graph traversals: BFS, DFS, topological order, reachability.

    These are the workhorses beneath the DAG analysis: topological order
    drives the Theorem 1 arc peeling; reachability defines the sets [A_a] and
    [S_b] of Theorem 6. *)

val bfs_dist : Digraph.t -> Digraph.vertex -> int array
(** Arc-count distances from the source; unreachable vertices get [-1]. *)

val topological_order : Digraph.t -> Digraph.vertex list option
(** Kahn's algorithm: [Some order] (sources first) iff the graph is acyclic.
    The queue is FIFO and seeded in vertex order, so the order is a
    function of the graph. *)

val topological_array : Digraph.t -> Digraph.vertex array option
(** {!topological_order} as a fresh array. *)

val find_directed_cycle : Digraph.t -> Digraph.vertex list option
(** A directed cycle as a vertex sequence [v1; ...; vk] with arcs
    [v1->v2->...->vk->v1], if the graph has one. *)

val reachable_from : Digraph.t -> Digraph.vertex -> bool array
(** [reachable_from g v] marks every vertex reachable from [v] by a dipath
    (including [v] itself). *)

val reaching_to : Digraph.t -> Digraph.vertex -> bool array
(** Vertices from which [v] is reachable (including [v]). *)

val reachability_matrix : Digraph.t -> Wl_util.Bitset.t array
(** [m.(v)] is the set of vertices reachable from [v] (including [v]).
    O(n·m/w) via bitset DP over the reverse topological order when the graph
    is acyclic; falls back to per-vertex BFS otherwise. *)

val undirected_components : Digraph.t -> int array * int
(** Connected components of the underlying undirected graph:
    [(component_id per vertex, component count)]. *)

val undirected_cycle :
  ?keep_arc:(Digraph.arc -> bool) ->
  Digraph.t ->
  (Digraph.arc * bool) list option
(** A cycle of the underlying undirected multigraph, as a closed walk of
    arcs: [(arc, forward?)] where [forward = true] means the arc is traversed
    from its source to its destination.  Consecutive items share the obvious
    endpoint, and the walk returns to its starting vertex.  [None] when the
    underlying graph is a forest.  [keep_arc] restricts the search to the
    sub-multigraph of arcs it accepts (default: all arcs).

    In a DAG, such a cycle is exactly an "oriented cycle" in the paper's
    sense. *)
