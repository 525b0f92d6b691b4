(** Arc loads and the load [pi(G, P)] of an instance.

    The load of an arc is the number of family dipaths through it; the load
    of the instance is the maximum over arcs.  [pi <= w] always (the dipaths
    through a max-load arc pairwise conflict). *)

open Wl_digraph

val arc_load : Instance.t -> Digraph.arc -> int

val pi : Instance.t -> int
(** [max over arcs of arc_load]; [0] for an empty family or arc-less graph. *)

val max_load_arc_among : Instance.t -> Digraph.arc list -> Digraph.arc
(** The arc of maximum load within a non-empty candidate list (ties broken
    by arc id) — Theorem 6 picks the max-load arc {e on the cycle}. *)
