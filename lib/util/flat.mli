(** Bigarray-backed flat int arrays.

    Long-lived instance-sized int tables (CSR index, occupancy) stored
    off the OCaml heap: the minor collector never copies them and the
    major collector scans one custom block instead of n words.
    Elements are native 63-bit ints, so packed words fit unchanged.

    Hot loops should use the [unsafe_*] pair (single load/store, like
    [Array.unsafe_get]) after validating bounds structurally. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Zero-filled. *)

val length : t -> int
val get : t -> int -> int
val unsafe_get : t -> int -> int
val unsafe_set : t -> int -> int -> unit
val fill : t -> int -> unit
val of_array : int array -> t

val ( .%() ) : t -> int -> int
(** Checked read: [Flat.(a.%(i))]. *)

val ( .%()<- ) : t -> int -> int -> unit
val ( .!() ) : t -> int -> int
(** Unchecked read: [Flat.(a.!(i))]. *)

val ( .!()<- ) : t -> int -> int -> unit
