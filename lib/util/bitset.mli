(** Fixed-capacity bitsets over [0 .. n-1], packed into [int] words.

    Used by the coloring and clique algorithms where dense set operations
    dominate the running time. *)

type t

val create : int -> t
(** [create n] is the empty set with capacity [n]. *)

val copy : t -> t

val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool

val cardinal : t -> int
(** Population count, O(words). *)

val clear : t -> unit
(** Remove all elements. *)

val fill : t -> unit
(** Add all elements of [0 .. n-1]. *)

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src]. Capacities must agree. *)

val inter : t -> t -> t

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order. *)

val iter_ge : (int -> unit) -> t -> int -> unit
(** [iter_ge f t lo]: like {!iter} but only over elements [>= lo]
    ([lo >= 0]); whole words below [lo] are skipped, so iterating an
    upper triangle costs half of filtering inside [f]. *)

val elements : t -> int list

val first : t -> int option
(** Smallest element, if any. *)

val first_absent : t -> int
(** Smallest [i >= 0] not in the set (the capacity when the set is full) —
    the "first free color" query of the coloring heuristics, walking whole
    words instead of testing bits one by one. *)
