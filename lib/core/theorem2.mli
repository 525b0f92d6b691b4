(** Theorem 2: a DAG with an internal cycle admits a family with
    [pi = 2 < 3 = w].

    Given an internal cycle in canonical form ([k] peaks [b_i], [k] valleys
    [c_i], segments [down_i : b_i ~> c_i] and [up_i : b_{i+1} ~> c_i]), the
    construction emits [2k + 1] dipaths

    {ul
    {- [a_1 . down_1] and [down_1 . d_1],}
    {- for [i = 2..k]: [a_i . up_{i-1} . d_{i-1}] and [a_i . down_i . d_i],}
    {- [a_1 . up_k . d_k],}}

    where [a_i] is any predecessor of [b_i] and [d_i] any successor of
    [c_i] — they exist precisely because the cycle is internal, and
    acyclicity makes every concatenation a simple dipath.  The conflict
    graph is the odd cycle [C_{2k+1}], so two wavelengths per arc suffice
    for the load but three are needed to color. *)

open Wl_dag

val build : Dag.t -> Instance.t option
(** Finds an internal cycle and wraps the family into an instance;
    [None] when the DAG has no internal cycle (Theorem 1 territory). *)

val replicate : Instance.t -> int -> Instance.t
(** [replicate inst h] repeats every family member [h] times — the paper's
    device (end of Section 4) to scale [pi] while keeping the conflict
    structure: on the Theorem 2 family it yields [pi = 2h] and
    [w = ceil(5h/2)] when [k = 2]. *)
