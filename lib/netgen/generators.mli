(** Random DAG generators, conditioned on the paper's structural classes.

    All generators are deterministic functions of the supplied PRNG state.
    The repair loops (removing an arc of a detected internal cycle or of a
    UPP violation) terminate because each repair strictly removes arcs. *)

open Wl_dag

val gnp_dag : Wl_util.Prng.t -> int -> float -> Dag.t
(** Random DAG: every pair [(i, j)] with [i < j] (in a hidden random vertex
    order) gets an arc with probability [p]. *)

val layered : Wl_util.Prng.t -> layers:int -> width:int -> p:float -> Dag.t
(** Layered DAG (layers of [width] vertices, arcs between consecutive
    layers with probability [p]); every non-extremal layer vertex is given
    at least one in- and one out-arc so the layer structure is genuine. *)

val without_internal_cycle : Wl_util.Prng.t -> Dag.t -> Dag.t
(** Removes random arcs of internal cycles until none remains — Theorem 1
    territory. *)

val gnp_no_internal_cycle : Wl_util.Prng.t -> int -> float -> Dag.t

val gnp_upp : Wl_util.Prng.t -> int -> float -> Dag.t
(** A gnp DAG with arcs removed until the unique-dipath property holds. *)

val random_rooted_tree : Wl_util.Prng.t -> int -> Dag.t
(** Uniform random recursive out-tree on [n] vertices: vertex [i >= 1]
    points from a uniform parent [< i].  Rooted trees are the paper's
    easiest [w = pi] class. *)

val upp_one_internal_cycle : Wl_util.Prng.t -> unit -> Dag.t
(** Theorem 6 territory: an internal cycle with 2-4 peaks/valleys (drawn
    at random), segments subdivided to random lengths of 1-3 arcs,
    pendant predecessors/successors making it internal, then 8 random
    pendant tree vertices (each new vertex attached by a single arc,
    which preserves both the UPP property and the internal-cycle
    count). *)

val upp_internal_cycles : Wl_util.Prng.t -> ?cycles:int -> unit -> Dag.t
(** Like {!upp_one_internal_cycle} but with [cycles] (default 2) gadgets
    bridged in series — a UPP-DAG with exactly [cycles] independent internal
    cycles, the regime of the paper's closing remark
    ([w <= ceil-iterated (4/3)^C pi]). *)

val backbone : Wl_util.Prng.t -> pops:int -> levels:int -> Dag.t
(** A synthetic optical-backbone-like DAG: [pops] points of presence per
    level, [levels] levels west-to-east, dense consecutive-level links plus
    sparse express links skipping one level.  Used by the example
    application; paper used none (it is a theory paper), so this is the
    documented workload substitution. *)
