(** Maximum clique and maximum independent set.

    For a UPP-DAG, the paper (Property 3 + the Helly argument) shows
    [pi = clique number of the conflict graph]; the clique solver verifies
    that identity in tests, and clique bounds feed the exact coloring
    branch-and-bound.  The independent-set solver powers the lower-bound
    argument of Theorem 7 ([w >= |P| / alpha]). *)

val clique_number : Ugraph.t -> int
(** Size of a maximum clique.  Exponential worst case; intended for the
    instance sizes of the test and bench suites. *)

val independence_number : Ugraph.t -> int

val greedy_clique : Ugraph.t -> int list
(** Fast lower-bound clique (by descending degree). *)
