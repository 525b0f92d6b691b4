(** Saturating non-negative integer arithmetic.

    Counting dipaths in a DAG can overflow machine integers on adversarial
    inputs; the UPP check only needs to distinguish 0, 1 and "2 or more",
    so counts saturate at [cap] instead of wrapping. *)

type t = private int
(** A saturated count: either an exact value [< cap] or [cap] meaning
    "at least cap". *)

val zero : t
val one : t
val of_int : int -> t
(** Clamps into [\[0, cap\]]. *)

val to_int : t -> int
val add : t -> t -> t
val mul : t -> t -> t
val is_saturated : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
