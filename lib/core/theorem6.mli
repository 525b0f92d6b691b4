(** Theorem 6: on a UPP-DAG with exactly one internal cycle,
    [w <= ceil(4 pi / 3)], constructively.

    The algorithm follows the paper's proof:

    {ol
    {- locate the unique internal cycle and a maximum-load arc [(a, b)] on
       it; pad the family with copies of the dipath [a -> b] until that
       arc's load reaches [pi] (padding never lowers the chromatic number of
       the original family);}
    {- split the arc: delete [(a, b)], add [(a, s)] and [(t, b)] with fresh
       [s] (a sink) and [t] (a source).  Every family dipath through
       [(a, b)] — by the UPP property these are exactly the dipaths from
       [A_a] to [S_b] — is cut into halves [x ~> a -> s] and [t -> b ~> y].
       The split DAG has no internal cycle, so Theorem 1 colors the cut
       family with [pi] colors;}
    {- the [pi] first halves pairwise conflict on [(a, s)], so their colors
       are a bijection [f]; same for the second halves ([g]).  The color
       permutation [sigma = g o f^{-1}] decomposes into cycles: each fixed
       point re-glues for free; each [p]-cycle ([p >= 3]) costs one fresh
       color; 2-cycles are handled in pairs at one fresh color per pair,
       a leftover 2-cycle merging with a [p]-cycle when one exists;}
    {- conflicts created by re-gluing are repaired by moving the (by the
       paper's Facts 1–2, pairwise arc-disjoint) offending outside dipaths
       onto the fresh color of their tuple.}}

    Every returned assignment is re-validated; on families of pairwise
    distinct dipaths the color count is [pi + F <= ceil(4 pi / 3)] with [F]
    the number of fresh colors.

    {b Faithfulness note.}  The paper's Facts 1 and 2 hold for half
    {e shapes} that diverge immediately after the split; identical copies
    (replicated families) and halves sharing a prefix are not covered by
    the written proof, and on such inputs the recoloring argument can
    genuinely need more than one fresh color per tuple.  This
    implementation hardens the construction — colors are re-paired through
    a simple-cycle decomposition of the half-shape transition multigraph,
    repair colors are allocated per damage class (the first arc after [b] /
    last arc before [a]), and a final sweep guarantees validity — but on
    replicated families the {e algorithm} may exceed [ceil(4 pi/3)] even
    though the {e theorem} still holds (e.g. the Theorem 7 family admits an
    explicit optimal coloring; see {!Replication}).  The stats expose what
    happened. *)

open Wl_digraph

exception Not_applicable of string
(** The instance is outside the theorem's hypotheses: the DAG is not UPP,
    or its number of independent internal cycles differs from one. *)

type stats = {
  pi : int;  (** load of the (padded) instance *)
  split_arc : Digraph.arc;  (** the max-load cycle arc that was split *)
  cycle_type : (int * int) list;
      (** [(length, multiplicity)] of the color permutation's cycles *)
  fresh_colors : int;  (** colors added beyond the palette [0 .. pi-1] *)
  n_colors : int;  (** wavelengths actually used by the assignment *)
}

val upper_bound : int -> int
(** [ceil (4 pi / 3)]. *)

val color : ?check:bool -> Instance.t -> Assignment.t
(** Valid assignment; on a family of pairwise distinct dipaths it uses at
    most [upper_bound (Load.pi inst)] wavelengths, while on a family that
    repeats dipaths it may use more (see the faithfulness note; the
    {!Solver} falls back to DSATUR then).  [check] (default [true])
    verifies the UPP and one-internal-cycle hypotheses first and raises
    {!Not_applicable} when they fail. *)

val color_with_stats : ?check:bool -> Instance.t -> Assignment.t * stats

val split_and_glue :
  subcolor:(Instance.t -> Assignment.t) -> Instance.t -> Assignment.t * stats
(** The reusable engine: split a max-load arc of {e some} internal cycle,
    color the split instance with [subcolor], re-glue and repair.  Theorem 6
    proper is [split_and_glue ~subcolor:Theorem1.color]; the multi-cycle
    recursion of {!Theorem6_multi} passes itself.  When [subcolor] uses more
    than [pi] colors (recursive calls do), the color re-pairing decomposes
    into chains as well as cycles; chains re-glue at their first-half colors
    and only buy fresh colors lazily, for actual repairs.  Raises
    {!Not_applicable} when the DAG has no internal cycle at all. *)

val check_hypotheses : exact_one:bool -> Wl_dag.Dag.t -> unit
(** Raises {!Not_applicable} unless the DAG is UPP with exactly one
    ([exact_one]) or at least one internal cycle. *)
