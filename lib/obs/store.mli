(** Commit-keyed bench trajectory: append-only JSONL store, robust
    summary statistics, and the statistical regression gate.

    Each recorded run is one {!entry} — keyed by git revision, UTC
    timestamp, domain count, and OCaml version — holding one {!point}
    per bench.  A point summarizes repeated measurements as median +
    MAD (median absolute deviation) + coefficient of variation, so the
    gate can widen its tolerance exactly when the machine is noisy.

    The on-disk format is schema [wavelength-bench-core/3]: one JSON
    object per line ([BENCH_trajectory.jsonl]).  {!load} also reads a
    standalone object, and accepts the pre-observatory [/1]-[/2] shape
    (single [ns_per_op] measurement, no spread), mapping it to a one-run
    sample so old baselines replay into the same history. *)

type sample = {
  median_ns : float;
  mad_ns : float;  (** median absolute deviation of the runs *)
  cv : float;  (** coefficient of variation (stddev / mean) *)
  runs : int;
}

type point = {
  name : string;  (** bench id — the gate matches history by this *)
  params : (string * int) list;  (** size parameters, inlined as ints *)
  extras : (string * float) list;  (** derived figures, e.g. a hit rate *)
  sample : sample;
  baseline_ns : float option;
      (** same-run reference time; only entries recorded before the
          reference arms were retired carry one *)
  counters : (string * Wl_json.Jsonx.t) list;
      (** engine/metrics counter embedding captured on an instrumented
          observation pass *)
}

type entry = {
  rev : string;
  timestamp : string;  (** ISO-8601 UTC *)
  domains : int;  (** recommended domain count at record time *)
  ocaml_version : string;
  note : string;  (** [""] when absent *)
  points : point list;
  extra : (string * Wl_json.Jsonx.t) list;
      (** unrecognized top-level fields, preserved (e.g. the sweep
          trajectory embedding) *)
}

val summarize : float list -> sample
(** Median, MAD, and CV of the given measurements.
    @raise Invalid_argument on an empty list. *)

val make : ?note:string -> domains:int -> point list -> entry
(** Entry for the current environment, under the
    ["wavelength-bench-core/3"] schema, with no [extra] fields.  [rev] is
    the [WL_GIT_REV] environment variable if set, else [git rev-parse
    --short HEAD], else ["unknown"]; [timestamp] is the current time,
    ISO-8601 UTC (e.g. ["2026-08-06T12:00:00Z"]). *)

val json_of_instrument : Metrics.instrument -> Wl_json.Jsonx.t
(** Counter as a bare int; histogram as
    [{count; sum; min; max; p50; p90; p99; p999}] — the shape used in
    point counter embeddings. *)

val append : string -> entry -> unit
(** Append one JSONL line to the trajectory at this path, creating the
    file if needed. *)

val load : string -> (entry list, string) result
(** Read a trajectory.  Accepts a JSONL file (one entry per line, in
    file order) or a standalone object; schema [/1]-[/2] entries are
    upgraded on the fly.  A missing file is an [Error]; an empty file
    is [Ok []]. *)

(** {1 Regression gate} *)

val alloc_key : string
(** ["gc.minor_w"] — the point-extra key under which the runner records
    minor words per op, and which the gate judges for allocation
    regressions. *)

type verdict = Stable | Regression | Improvement | New_bench

type alloc_check = {
  current_w : float;  (** minor words/op of the judged entry *)
  baseline_w : float;  (** median of the window's recorded figures *)
  tolerance_w : float;
  alloc_verdict : verdict;  (** never [New_bench] *)
}

type bench_verdict = {
  bench : string;
  current_ns : float;
  baseline_med_ns : float;  (** median of the window's medians; [0.] for new *)
  baseline_mad_ns : float;  (** MAD of the window's medians *)
  tolerance_ns : float;
  delta_pct : float;  (** current vs baseline, percent; [0.] for new *)
  verdict : verdict;
  alloc : alloc_check option;
      (** allocation judgement over the ["gc.minor_w"] point extra;
          [None] when the entry or its whole history window lacks the
          figure (pre-gate points never fail the alloc check) *)
}

type comparison = {
  verdicts : bench_verdict list;  (** in the entry's bench order *)
  regressions : int;
  improvements : int;
  stable : int;
  new_benches : int;
  alloc_regressions : int;
      (** benches whose minor words/op grew beyond tolerance — gated
          independently of time, so an allocation leak that does not yet
          cost wall-clock still fails the gate *)
}

val compare :
  ?window:int -> ?threshold_pct:float -> history:entry list -> entry -> comparison
(** Judge [entry] against a rolling baseline: for each of its benches,
    the medians recorded in the last [window] (default 5) history
    entries containing that bench.  The tolerance band around the
    baseline median is [max (threshold_pct% of it) (3 * MAD of the
    window's medians)] (default threshold 10%) — the percentage floor
    absorbs single-point histories, the MAD term widens the band when
    the history itself is noisy.  A shift beyond the band in either
    direction is flagged: slower is {!Regression}, faster is
    {!Improvement} (an unexplained speedup usually means the bench
    broke); inside the band is {!Stable}; absent from history is
    {!New_bench}.

    Benches that record the ["gc.minor_w"] extra (minor words per op)
    are additionally judged on allocation, with the same
    percentage/MAD band plus a fixed floor of 64 words so a
    zero-allocation baseline tolerates a stray boxed temporary.  The
    allocation verdict is independent of the time verdict: a bench can
    be time-stable yet an allocation regression, and
    [alloc_regressions] counts those separately for the gate. *)

val pp_comparison : Format.formatter -> comparison -> unit
