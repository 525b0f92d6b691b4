(** Domain-safe counters and histograms for solver internals.

    Instruments are created once at module-init time (creation takes a
    registry lock) and then updated lock-free from any domain.  Counters
    go to per-domain-striped [Atomic.t] cells, so concurrent sweeps over
    {!Wl_util.Parallel} never contend on a single cache line, and reads
    sum the stripes.  Histograms are {!Hdr} histograms: one kind serves
    nanosecond latencies and small magnitudes (cascade lengths, color
    counts) alike, exact below 64 and within ~3% above.  A histogram's
    {!Hdr.t} is made on its first enabled {!observe}, so registering one
    costs a few words until Metrics is enabled.

    The whole subsystem is gated on one flag: while disabled (the default)
    every update is a single atomic load and a branch — no allocation, no
    store — so instruments can sit inside the Theorem 1 insertion loop
    without showing up in a profile.  Updates allocate nothing while
    enabled either, apart from a histogram's first {!observe}.  Enable
    with {!set_enabled} around the region you want measured, then
    {!snapshot} or {!pp_summary}. *)

type counter
type histogram

val set_enabled : bool -> unit
(** Enable/disable all updates.  Call before spawning worker domains so
    they observe the flag. *)

val enabled : unit -> bool

val counter : string -> counter
(** Find-or-create the counter registered under this name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val histogram : string -> histogram
(** Find-or-create an {!Hdr} histogram with exact p50/p90/p99/p999 from
    fixed memory.  A name ending in [.ns] records nanosecond durations;
    the others record plain magnitudes.  The {!Hdr.t} itself is created
    on the first enabled {!observe}; until then the histogram reads as
    empty. *)

val observe : histogram -> int -> unit
(** Record one observation (negative values clamp to 0).  Gated like
    every update; lock-free, and allocation-free when enabled except for
    the histogram's first observation, which creates its {!Hdr.t} and
    installs it with one compare-and-set (racing domains agree on one). *)

type instrument = Counter of int | Histogram of Hdr.snapshot

val snapshot : unit -> (string * instrument) list
(** Every registered instrument with a non-zero value/count, sorted by
    name.  Instruments that were never touched are omitted.  The sort
    makes snapshots (and everything rendered from them — {!pp_summary},
    bench counter embeddings) deterministic across runs and domain
    counts. *)

val reset : unit -> unit
(** Zero every instrument (registration survives). *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable table of {!snapshot}: counters as [name value],
    histograms as [name count sum min p50 p99 max], all plain integers
    (a latency's [.ns] suffix names its unit). *)
