(** Fixed-memory HDR latency histograms with exact quantile queries.

    A log-linear bucket scheme in the style of HdrHistogram: values below
    [2^6] get their own bucket (exact), and every higher power-of-two tier
    is split into [2^5] linear sub-buckets, so the bucket ceiling is always
    within [2^-5] (~3%) relative error of the recorded value.  The whole
    structure is a flat array of ~1.9k atomic counters — recording is
    lock-free, domain-safe, and allocates nothing, which is what lets the
    engine keep per-session latency accounting inside its zero-minor-alloc
    warm paths.

    Quantiles are *exact over buckets*: [quantile h q] returns the ceiling
    of the bucket holding the rank-[ceil(q*count)] observation, clamped to
    the largest recorded value, i.e. the smallest reported value [v] such
    that at least a [q] fraction of observations were [<= v], and never a
    value above the largest recorded one.  The oracle test pins this to a
    sorted-array reference through {!round_up}. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Record one observation (negative values clamp to 0).  Lock-free,
    zero-allocation, safe from any domain. *)

val record_traced : t -> int -> trace:int -> unit
(** Like {!record}, additionally latching [(value, trace)] as the
    histogram's {!exemplar} when [trace] is nonzero and the value ties
    or beats the worst traced sample so far.  [record t v] is
    [record_traced t v ~trace:0].  Still zero-allocation. *)

val exemplar : t -> (int * int) option
(** [(worst_value, trace_id)] of the worst traced observation since the
    last {!reset}, if any — the OpenMetrics-exemplar link from a p99
    figure to a concrete distributed trace.  Under concurrent writers
    the pair is latched with independent atomics, so it is a monitoring
    pointer, not a linearizable cut. *)

val count : t -> int
val sum : t -> int

val quantile : t -> float -> int
(** [quantile h q] for [q] in [(0,1]]: the ceiling of the bucket holding
    the observation of rank [ceil (q *. count)], or the largest recorded
    value when that is smaller.  [0] when empty. *)

val round_up : int -> int
(** The bucket ceiling a value lands in: [quantile] answers are always
    [round_up] of some recorded observation, or the largest one.  Exposed
    so tests can build an exact sorted-array oracle. *)

val merge_into : dst:t -> t -> unit
(** Add every bucket count of the source into [dst].  The worst
    {!exemplar} of the two survives, so shard-merged rollups keep their
    link to the slowest trace daemon-wide. *)

val reset : t -> unit

type snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
}

val snapshot : t -> snapshot
(** Consistent-enough view for reporting (individual fields are atomic;
    the set is not a linearizable cut under concurrent writers). *)

val pp_ns : Format.formatter -> snapshot -> unit
(** One-line human rendering with ns/µs/ms scaling. *)

(** Latency SLO tracking over a sliding window of observations.

    [create ~target_ns ~budget] tracks the fraction of the last 512
    observations over [target_ns].  When the window is sufficiently full
    (64 observations) and that fraction (the {e burn rate}) exceeds
    [budget], the tracker latches [tripped] — the engine surfaces it
    through [Engine.health].  Recording is allocation-free. *)
module Slo : sig
  type t

  val create : target_ns:int -> budget:float -> t
  (** [budget] is the tolerated fraction of over-target observations
      (e.g. [0.01] for 1%). *)

  val record : t -> int -> unit
  (** Record one latency observation.  Zero-allocation. *)

  val tripped : t -> bool
  (** Latched: has the burn rate ever exceeded the budget with at least 64
      observations in the window? *)

  type state = {
    target_ns : int;
    budget : float;
    window : int;
    observed : int;  (** observations currently in the window *)
    over : int;  (** of which over target *)
    total : int;  (** lifetime observations *)
    total_over : int;
    burn : float;
    tripped : bool;
  }

  val state : t -> state
  val pp : Format.formatter -> state -> unit
end
