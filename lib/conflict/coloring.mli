(** Vertex coloring of undirected graphs.

    Colors are integers starting at 0.  [w(G,P)] in the paper is the
    chromatic number of the conflict graph; the heuristics here give upper
    bounds (DSATUR is exact on many structured conflict graphs), and
    {!Exact} computes the true chromatic number for the sizes used in tests
    and benches. *)

type t = int array
(** [coloring.(v)] is the color of vertex [v]. *)

val is_valid : Ugraph.t -> t -> bool
(** No edge is monochromatic and every vertex has a color [>= 0]. *)

val n_colors : t -> int
(** Number of distinct colors used ([max + 1]; assumes colors form an
    initial segment — see {!normalize}). *)

val normalize : t -> t
(** Renames colors to an initial segment [0 .. k-1], preserving classes. *)

val dsatur : Ugraph.t -> t
(** DSATUR (Brélaz): repeatedly color the vertex with the most distinctly
    colored neighbors.  Runs on a reusable domain-local working set
    (saturation bitsets, buckets, arena scratch), so repeated colorings
    of same-sized graphs allocate little beyond the returned array; the
    buffers are retained, sized by the largest graph the domain has
    colored. *)

val best_heuristic : Ugraph.t -> t
(** The better of {!dsatur} and first-fit in non-increasing degree order
    (Welsh–Powell). *)
