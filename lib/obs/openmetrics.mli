(** OpenMetrics text exposition of metrics snapshots — and its validator.

    {!render} maps a {!Metrics.snapshot} (plus ad-hoc gauges and
    standalone {!Hdr} snapshots, e.g. per-session engine latencies) onto
    the OpenMetrics text format:

    - instrument names sanitize to [wl_]-prefixed metric names
      ([solver.ns.thm1] → [wl_solver_ns_thm1]), the original name kept in
      the [# HELP] line;
    - counters become [counter] families ([_total] sample);
    - histograms and HDR snapshots become [summary] families with
      [quantile] labels (0.5/0.9/0.99/0.999) plus [_sum] and [_count],
      values in the instrument's unit (ns for a [.ns] name);
    - gauges are emitted verbatim;
    - the document ends with [# EOF].

    {!render} never emits a [histogram] family.  {!validate} is a
    dependency-free parser for the OpenMetrics dialect, [histogram]
    families included, since it also checks documents from other
    exporters.  It is strict enough to catch shape mistakes (samples
    without a [# TYPE], suffixes illegal for the declared type, garbage
    after [# EOF]) — it backs [wl metrics-check] and the CI smokes over
    [wl top --metrics-out] and [wl-stress --daemon --metrics-out]. *)

val render :
  ?gauges:(string * float) list ->
  ?labeled:(string * ((string * string) list * float) list) list ->
  ?latencies:(string * Hdr.snapshot) list ->
  ?exemplars:(string * (int * int)) list ->
  (string * Metrics.instrument) list ->
  string
(** Families are emitted sorted by metric name; gauges and latencies are
    merged into the same namespace as the snapshot instruments.

    [labeled] families are gauges with one sample per (label set, value)
    row — e.g. per-tenant daemon figures, with the tenant name as an
    escaped label value.  [exemplars] maps a {e raw} metric name (as
    passed in [latencies] / the snapshot) to [(value, trace_id)] from
    {!Hdr.exemplar}; matching summaries gain OpenMetrics exemplar syntax
    ([# {trace_id="<hex>"} value]) on their [_count] sample. *)

type stats = { families : int; samples : int }

val validate : string -> (stats, string) result
(** Check a full exposition document.  Errors carry the 1-based line.
    Sample lines may carry an optional timestamp or an OpenMetrics
    exemplar ([# {labels} value [timestamp]]); both are validated, not
    skipped. *)
