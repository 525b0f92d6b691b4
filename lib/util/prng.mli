(** Deterministic pseudo-random number generator (SplitMix64).

    All randomized code in this repository draws from this generator so that
    every test, example and benchmark is reproducible from a seed.  The
    implementation is the standard SplitMix64 mixer (Steele, Lea, Flood 2014),
    which is statistically solid for simulation workloads. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [\[0, n)], in increasing order. Requires [0 <= k <= n]. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [\[0, n)]. *)
