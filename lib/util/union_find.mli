(** Disjoint-set forest with union by rank and path compression.

    Used for undirected cycle detection (an edge joining two vertices already
    in the same class closes a cycle) and for connected components. *)

type t

val create : int -> t
(** [create n] makes [n] singleton classes [0 .. n-1]. *)

val find : t -> int -> int
(** Canonical representative of the class of an element. *)

val union : t -> int -> int -> bool
(** [union t a b] merges the classes of [a] and [b]. Returns [false] when
    they were already in the same class (i.e. the union closed a cycle). *)
