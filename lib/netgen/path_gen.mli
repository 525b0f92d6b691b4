(** Random dipath families over a given DAG.

    The paper's statements are "for any family of dipaths"; the property
    tests and benches quantify over these samplers. *)

open Wl_digraph

val random_family : Wl_util.Prng.t -> Wl_dag.Dag.t -> int -> Dipath.t list
(** [random_family rng d k] draws until it has [k] dipaths (skipping dead
    starts); returns fewer only when the DAG has no arc at all.  Each is a
    uniform-start random directed walk of at least one arc, extended one
    more step with probability 0.65 until it reaches a sink. *)

val random_instance :
  Wl_util.Prng.t -> Wl_dag.Dag.t -> int -> Wl_core.Instance.t
(** {!random_family} wrapped as an instance. *)
