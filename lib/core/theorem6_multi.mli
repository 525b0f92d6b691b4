(** The paper's closing remark on Theorem 6: iterating the split-and-glue
    argument over a UPP-DAG with [C] internal cycles bounds the number of
    wavelengths by [C] nested ceilings of [4/3 · pi]
    (see {!Bounds.theorem6_upper}).

    The recursion splits a maximum-load arc of some internal cycle, colors
    the split instance (which has [C - 1] internal cycles) recursively —
    bottoming out at Theorem 1 — and re-glues with the {!Theorem6} engine.
    Because a recursive sub-coloring may legitimately use more than [pi]
    colors, the re-gluing works with color {e injections} rather than
    bijections; the extra colors surface as chains in the re-pairing and
    cost fresh colors only when an actual repair happens.

    As with {!Theorem6}, the algorithmic bound is tight reasoning for
    families of pairwise distinct dipaths; validity of the output is
    unconditional. *)

val color : ?check:bool -> Instance.t -> Assignment.t
(** Valid assignment.  [check] (default [true]) verifies that the DAG is
    UPP with at least one internal cycle; on a DAG with exactly one this
    coincides with {!Theorem6.color}.  With {!Wl_obs.Metrics} enabled, the
    number of splits of each call is observed in the
    [thm6multi.recursion_depth] histogram. *)

val upper_bound : n_internal_cycles:int -> int -> int
(** [Bounds.theorem6_upper], re-exported for convenience. *)
