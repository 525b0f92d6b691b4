(** The conflict graph of an instance.

    Vertices are family indices; an edge joins two indices whose dipaths
    share an arc.  [w(G,P)] is its chromatic number and the paper's UPP
    analysis (Property 3, Corollary 5) is about the structure of this
    graph. *)

val build : Instance.t -> Wl_conflict.Ugraph.t
(** O(sum over arcs of load^2) construction via the per-arc occupancy
    lists. *)

val helly_witness : Instance.t -> int list option
(** Searches for a set of pairwise-conflicting dipaths with {e no} common
    arc — a violation of the Helly property.  Returns such a set of family
    indices if one exists (checks all pairwise-conflicting triples; by the
    paper's Property 3 proof, a triple suffices to witness failure on
    UPP-DAGs... and on general DAGs a failing triple is what Figure 3
    exhibits).  [None] means every pairwise-conflicting triple shares an
    arc. *)

