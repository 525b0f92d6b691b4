(** The paper's concluding problem: for a given number of wavelengths [w],
    satisfy as many dipaths of a family as possible.

    On a DAG without internal cycle, Theorem 1 turns the wavelength
    constraint into a pure load constraint — a subfamily is satisfiable
    with [w] wavelengths iff its load is at most [w] ("Our theorem shows
    that we have only to compute the load").  This module solves the
    resulting selection problem:

    {ul
    {- {!exact}: branch and bound, exact for moderate families;}
    {- {!greedy}: shortest-first greedy, fast at any scale;}
    {- {!on_line}: the classic [w]-track interval scheduling greedy, exact
       in O(n log n) when the digraph is a directed line (the "grooming on
       the path" setting of the paper's reference [3]).}}

    The paper notes the rooted-tree case "appears already as a difficult
    one"; accordingly only the line is given a specialized exact solver. *)

type selection = {
  selected : bool array;  (** per family index *)
  size : int;
  load : int;  (** load of the selected subfamily, always [<= w] *)
}

val greedy : Instance.t -> w:int -> selection
(** Considers dipaths by increasing arc count (ties by index) and keeps
    each one that leaves every arc's load at most [w]. *)

val exact : Instance.t -> w:int -> selection option
(** Optimal selection by branch and bound ([None] if the search exceeds
    2,000,000 nodes). *)

val on_line : Instance.t -> w:int -> selection option
(** Exact and fast when the underlying digraph is a directed line
    ([None] otherwise): sort by right endpoint, keep an interval whenever
    fewer than [w] kept intervals cover some arc of it — the standard
    exchange argument shows this maximizes the count. *)

val satisfy : Instance.t -> w:int -> (selection * Assignment.t) option
(** End-to-end: picks a subfamily (exact where feasible, greedy at scale,
    line solver when applicable) and wavelength-assigns it within [w]
    colors.  Without internal cycles the first selection always fits
    (Theorem 1: load = wavelengths); with them the load target is lowered
    until the coloring fits, so the result is [Some] for every [w >= 0]
    (possibly the empty selection).  The assignment array has one entry per
    {e selected} dipath, in family order.

    On internal-cycle-free DAGs the selection is a {e maximum}
    [w]-satisfiable subfamily whenever the underlying selector was exact
    (line solver, or branch and bound within its budget) — that is
    precisely the paper's concluding reduction.  On DAGs with internal
    cycles the result is feasible but can be smaller than optimal
    (satisfiability is no longer a pure load condition there; the paper
    leaves that regime open). *)
