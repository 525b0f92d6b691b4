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
    {- summed per span name into [prof.<span>.<field>] {!Metrics}
       counters ([calls], [self_ns], [minor_words], [major_words],
       [promoted_words], [minor_gcs], [major_gcs]) — the one per-span
       aggregate, read from Metrics snapshots by [wl analyze --stats],
       the bench counter embeddings and [wl report].}}

    Deltas are inclusive of child spans, like durations; [self_us] is
    the exclusive figure.  Profiling requires an active trace sink
    (probes only fire inside enabled spans) — use {!Trace.discard} when
    only the counters are wanted — and the counters additionally
    require {!Metrics.set_enabled}.  Enable before spawning worker
    domains.

    Attribution is alloc-exact for the measured span: readings are
    pushed/popped through preallocated per-domain arrays and capture
    order excludes the probe's own [Gc.quick_stat] record, so a span
    whose body allocates nothing reports [gc.minor_w = 0] even under
    profiling.  The probe's own small cost (and the span harness's) is
    charged to the {e enclosing} span instead.  Still keep profiling
    off while timing hot paths — the readings cost time, not words. *)

val enable : unit -> unit
(** Install the GC probe on {!Trace}.  Idempotent. *)

val disable : unit -> unit
(** Remove the probe.  The counters keep their values until
    {!Metrics.reset}. *)
