(** Exact graph coloring (chromatic number).

    Branch-and-bound: a maximum(ish) clique seeds the palette and gives the
    lower bound, DSATUR gives the upper bound, and a DSATUR-ordered
    backtracking search closes the gap.  Practical up to a few hundred
    vertices for the structured conflict graphs this repository produces. *)

val k_colorable : Ugraph.t -> int -> Coloring.t option
(** A proper coloring with at most [k] colors, or [None] if impossible. *)

val chromatic_number : Ugraph.t -> int
