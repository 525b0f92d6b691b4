(** Simple undirected graphs, used as conflict graphs.

    Vertices are dense integers; the adjacency is kept both as lists (for
    iteration) and as bitsets (for the clique and exact-coloring solvers).
    The number of wavelengths [w(G,P)] of the paper is precisely the
    chromatic number of such a graph. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] vertices. *)

val n_vertices : t -> int
val n_edges : t -> int

val add_edge : t -> int -> int -> unit
(** Ignores duplicate insertions; raises [Invalid_argument] on self-loops or
    out-of-range vertices. *)

val mem_edge : t -> int -> int -> bool
val neighbors : t -> int -> int list
val neighbor_set : t -> int -> Wl_util.Bitset.t
(** The adjacency bitset itself — callers must not mutate it. *)

val degree : t -> int -> int
val iter_edges : (int -> int -> unit) -> t -> unit
(** [iter_edges f g] calls [f u v] once per edge, [u < v], in
    lexicographic order, without materializing a list. *)

val complement : t -> t
