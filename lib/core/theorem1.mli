(** Theorem 1: on a DAG without internal cycle, [w = pi], constructively.

    The implementation turns the paper's induction into a single forward
    pass.  Sorting arcs by the topological position of their tail and
    inserting them back-to-front reproduces the proof's peeling in reverse:
    the next arc to insert always leaves a source of the current partial
    graph, and each family dipath's live part is a growing suffix.  At each
    insertion, the dipaths through the new arc must use pairwise distinct
    colors; when they do not, we flip the Kempe component of the offending
    path in the {e alpha/beta} subgraph of the current conflict graph —
    exactly the proof's recoloring cascade.  The component can only swallow
    the protected dipath if the DAG has an internal cycle (proof case C), in
    which case {!Internal_cycle_encountered} is raised carrying the chain of
    pairwise-intersecting dipaths that the paper folds into an internal
    cycle.

    On success the assignment is valid and uses at most [pi(G,P)] colors —
    and therefore exactly [w = pi] of them, since [pi <= w] always. *)

exception
  Internal_cycle_encountered of {
    chain : int list;
        (** family indices [p1; ...; p0]: consecutive dipaths conflict and
            their colors alternate — the paper's case-C sequence *)
    junction : Wl_digraph.Digraph.vertex;
        (** the head [y0] of the arc being inserted; the live parts of the
            first and last chain members both start there *)
  }
(** The recoloring cascade reached the protected dipath — the paper's
    case C, from which an internal cycle can be extracted
    ({!witness_internal_cycle}).  Never raised when the DAG has no internal
    cycle. *)

val color : Instance.t -> Assignment.t
(** Optimal wavelength assignment ([n_wavelengths <= Load.pi], hence equal
    to [w]).  Raises {!Internal_cycle_encountered} only if the DAG has an
    internal cycle (Theorem 1 guarantees success otherwise; the converse
    direction is exercised by Theorem 2 instances).

    The returned array is fresh (callers own it).  Internally the solve
    runs on a domain-local {!scratch}, so repeat calls on the same
    instance allocate nothing beyond this copy. *)

(** {1 Reusable solver state}

    The solver's flat state is a {e scratch} backed by a
    {!Wl_util.Arena}: binding an instance sizes the buffers once, and
    every further solve of the same instance is allocation-free
    (generation-stamped marks, no per-call [Array.make]).  Sessions that
    solve repeatedly — the engine, benchmarks — own a scratch and call
    {!color_with}. *)

type scratch

val scratch : unit -> scratch
(** A fresh unbound scratch.  One domain at a time; binding happens on
    first use and is keyed by physical instance identity. *)

val color_with : scratch -> Instance.t -> Assignment.t
(** Like {!color}, but the returned array is {e borrowed} from the
    scratch: valid until the next [color_with] call on it, never to be
    mutated.  Rebinds (and allocates) only when [inst] differs
    physically from the previous call's; a warm repeat solve performs
    zero minor allocation, which is what the [thm1.color] span's
    [gc.minor_w = 0] steady state in {!Wl_obs.Prof} reports. *)

val color_result :
  Instance.t ->
  (Assignment.t, int list * Wl_digraph.Digraph.vertex) result
(** Same, as a [result] carrying the case-C chain and junction. *)

val witness_internal_cycle :
  Instance.t ->
  chain:int list ->
  junction:Wl_digraph.Digraph.vertex ->
  Wl_dag.Internal_cycle.walk option
(** The paper's case-C construction, executably: walk from the junction
    along the first chain member to its first arc shared with the second,
    hop over, and so on back to the junction; arcs traversed an odd number
    of times form a non-trivial element of the cycle space whose vertices
    all have a predecessor and a successor in the DAG, so any cycle in it
    is internal.  Returns such a cycle ([None] only if the parity set is
    empty, which the paper's argument rules out on the chains the cascade
    emits).  Used by tests to confirm that every case-C abort exhibits a
    concrete internal cycle. *)

