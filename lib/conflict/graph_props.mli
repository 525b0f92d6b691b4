(** Structural probes on undirected graphs.

    Corollary 5 of the paper: the conflict graph of a UPP-DAG contains no
    [K_{2,3}] (and no [K_5] minus two independent edges); the tests drive
    these detectors over the conflict graphs our generators produce. *)

val find_k23 : Ugraph.t -> (int list * int list) option
(** An induced [K_{2,3}]: two non-adjacent vertices adjacent to the same
    three pairwise non-adjacent others.  Returns [(pair, triple)].  This is
    the pattern Corollary 5 forbids — its proof takes both sides pairwise
    disjoint (a clique such as [K_5] does contain a complete-bipartite
    [K_{2,3}] subgraph and {e is} realizable on a UPP-DAG, so the liberal
    reading would be wrong). *)

val has_k23 : Ugraph.t -> bool

val find_k5_minus_two_independent_edges : Ugraph.t -> int list option
(** Five vertices inducing exactly [K_5] minus two disjoint edges: the two
    non-adjacent pairs are disjoint and every other pair is adjacent. *)

val is_cycle_graph : Ugraph.t -> bool
(** The whole graph is a single cycle [C_n] ([n >= 3]): connected and
    2-regular. *)
