(** The paper's worked examples, as executable constructions.

    Every function returns a full {!Wl_core.Instance.t} (graph + dipath
    family) whose [(pi, w)] the paper states; the bench harness recomputes
    both and compares. *)

open Wl_core

val fig1 : int -> Instance.t
(** Figure 1, generalized to any [k >= 2]: a DAG and [k] dipaths that
    pairwise share an arc while no arc carries more than two of them —
    so [pi = 2] but [w = k]: no function of the load can bound the number
    of wavelengths on general DAGs.

    The construction keeps the figure's combinatorial content: for every
    pair [i < j] a dedicated "meeting" arc traversed by exactly dipaths [i]
    and [j], the meetings ordered consistently so that each dipath is simple
    and the graph acyclic.  (The paper draws the [k = 4] case as a grid of
    staircase walks; the meeting arcs are the shared diagonal segments.) *)

val fig3 : unit -> Instance.t
(** Figure 3 verbatim: vertices [a1 b1 c1 d1 e1], arcs
    [a1->b1->c1->d1->e1] plus the chord [b1->d1], and the five dipaths
    whose conflict graph is [C_5] — a DAG with one internal cycle,
    [pi = 2], [w = 3]. *)

val fig5 : int -> Instance.t
(** The Theorem 2 family on Figure 5's DAG for a given [k >= 2]: an
    internal cycle with peaks [b_1..b_k] and valleys [c_1..c_k] (arcs
    [b_i -> c_i] and [b_{i+1} -> c_i]), plus pendant predecessors [a_i]
    and successors [d_i] — a UPP-DAG with exactly one internal cycle —
    and [2k + 1] dipaths with [pi = 2], [w = 3] (conflict graph
    [C_{2k+1}]). *)

val havet : int -> Instance.t
(** Theorem 7's family on Figure 9's UPP-DAG (due to F. Havet): peaks
    [b1, b2], valleys [c1, c2] joined by all four arcs (the single
    internal cycle), two pendant predecessors on each peak ([a1, a1'] ->
    [b1]; [a2, a2'] -> [b2]) and two pendant successors on each valley.
    The 8 dipaths of Figure 9, each replicated [h >= 1] times ([8h]
    dipaths total).  The base conflict graph is [C_8] plus
    antipodal chords (the Wagner graph), so [pi = 2h] while
    [w = ceil(8h/3)] — the tight case of Theorem 6's bound. *)

val havet_base_independent_sets : unit -> int list array
(** The eight maximum independent sets [{i, i+2, i+5}] of the Wagner graph,
    indexed cyclically — the covering design behind the optimal coloring of
    the replicated family (see {!Wl_core.Replication}). *)

val odd_cycle_independent_sets : int -> int list array
(** For [C_{2k+1}]: the [2k+1] maximum independent sets
    [{j, j+2, ..., j+2(k-1)}], used to color replicated Theorem 2
    families optimally. *)
