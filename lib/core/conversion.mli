(** Wavelength conversion (the paper's reference [10], Kleinberg–Kumar).

    A converter at vertex [v] lets a lightpath change wavelength when it
    passes through [v]: the dipath behaves as independent segments split at
    converter vertices.  Formally, the instance is replaced by its
    {e segment instance} — every dipath cut at each interior converter
    vertex — and wavelengths are assigned to segments.

    Two classical facts fall out and are verified by the tests:

    {ul
    {- converters never hurt: [w_conv <= w] (any coloring of the whole
       dipaths restricts to the segments);}
    {- with converters everywhere, [w_conv = pi] on {e any} DAG: the
       segments are single arcs, so the conflict graph is a disjoint union
       of per-arc cliques.  Conversion is thus exactly what buys back the
       Theorem 1 equality when internal cycles break it.}} *)

open Wl_digraph

val wavelengths : Instance.t -> converters:Digraph.vertex list -> Solver.report
(** Solve the segment instance: each dipath cut at every {e interior}
    occurrence of a converter vertex (endpoints need no conversion), in
    family order, then along each dipath.  The report's wavelengths are the
    converter count for the original family; its assignment indexes
    {e segments}. *)

val greedy_placement :
  Instance.t -> budget:int -> Digraph.vertex list * Solver.report
(** Greedily place up to [budget] converters, each round picking the vertex
    whose conversion lowers the wavelength count most (ties to the smaller
    vertex id; stops early when no vertex helps).  Returns the placement
    and the final report — a simple baseline for the classic converter
    placement problem. *)
