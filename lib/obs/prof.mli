(** Per-span GC/allocation telemetry.

    While enabled, every {!Trace.with_span} additionally measures the
    garbage-collector work done inside it — minor words via
    [Gc.minor_words] deltas (exact even between collections, which
    [Gc.quick_stat]'s field is not on OCaml 5.1), major/promoted words
    and minor/major collection counts via [Gc.quick_stat] deltas — plus
    the span's {e self-time} (duration minus direct children).  The
    figures are

    {ul
    {- attached to the span's trace event as extra args
       ([gc.minor_w], [gc.major_w], [gc.promoted_w], [gc.minor_gcs],
       [gc.major_gcs], [self_us]);}
    {- aggregated per span name, readable via {!snapshot} /
       {!pp_summary};}
    {- mirrored into [prof.<span>.<field>] {!Metrics} counters, so they
       join Metrics snapshots and the bench counter embeddings.}}

    Deltas are inclusive of child spans, like durations; [self_us] is
    the exclusive figure.  Profiling requires an active trace sink
    (probes only fire inside enabled spans) — use {!Trace.discard} when
    only the aggregates are wanted — and the Metrics mirror additionally
    requires {!Metrics.set_enabled}.  Enable before spawning worker
    domains.

    Attribution is alloc-exact for the measured span: readings are
    pushed/popped through preallocated per-domain arrays and capture
    order excludes the probe's own [Gc.quick_stat] record, so a span
    whose body allocates nothing reports [gc.minor_w = 0] even under
    profiling.  The probe's own small cost (and the span harness's) is
    charged to the {e enclosing} span instead.  Still keep profiling
    off while timing hot paths — the readings cost time, not words. *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type row = {
  span : string;
  calls : int;
  total_us : float;  (** summed span durations (inclusive) *)
  self_us : float;  (** summed self-times (exclusive of children) *)
  gc : gc_delta;  (** summed GC deltas (inclusive) *)
}

val enable : unit -> unit
(** Install the GC probe on {!Trace}.  Idempotent. *)

val disable : unit -> unit
(** Remove the probe and stop aggregating (accumulated rows survive
    until {!reset}). *)

val snapshot : unit -> row list
(** Aggregated rows for every profiled span name, sorted by name. *)

val reset : unit -> unit
(** Drop all aggregated rows (the Metrics mirror is zeroed separately,
    by {!Metrics.reset}). *)

val pp_summary : Format.formatter -> unit -> unit
(** Table of {!snapshot}: span, calls, total/self ms, minor words,
    minor/major collections. *)
