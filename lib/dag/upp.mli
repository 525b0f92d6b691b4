(** UPP-DAGs: DAGs with the Unique diPath Property.

    A DAG is UPP when there is at most one dipath between any ordered pair of
    vertices.  For UPP-DAGs, a request [(x, y)] determines its route, the
    conflict graph of any family enjoys the Helly property (paper,
    Property 3), and the load equals the conflict graph's clique number.

    Recognition is a saturating path-count DP over the topological order;
    when the property fails the checker extracts two explicit distinct
    dipaths as a witness. *)

open Wl_digraph

type violation = {
  from_v : Digraph.vertex;
  to_v : Digraph.vertex;
  path1 : Dipath.t;
  path2 : Dipath.t;
}
(** Two distinct dipaths between the same ordered pair. *)

val is_upp : Dag.t -> bool

val find_violation : Dag.t -> violation option
(** [None] iff the DAG is UPP. The two returned dipaths differ. *)

val routable_pairs : Dag.t -> (Digraph.vertex * Digraph.vertex) list
(** Ordered pairs [(x, y)], [x <> y], such that a dipath from [x] to [y]
    exists — the all-to-all request family that the paper's concluding
    section discusses. *)
