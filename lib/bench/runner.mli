(** Measurement engine for [wl bench].

    Each arm is measured in two separate passes: a timed pass with every
    instrument off (clean ns/op, summarized to median/MAD/CV over
    repeated batches), then one observation pass with {!Wl_obs.Metrics}
    and {!Wl_obs.Prof} enabled under the discard trace sink, which
    captures the counter embedding — including the [prof.<span>.*]
    GC/allocation mirrors — and the arm's extras. *)

val measure : ?runs:int -> ?target_s:float -> (unit -> unit) -> Wl_obs.Store.sample
(** Time [f]: one warm-up, one calibration run to size batches so the
    whole measurement takes [target_s] (default 0.35 s), then [runs]
    (default 7) timed batches; each batch yields one ns/op sample. *)

val measure_alloc : ?reps:int -> (unit -> unit) -> float
(** Minor words allocated by one op in steady state: three warm-up runs
    (retained scratch reaches capacity), then the minimum
    [Gc.minor_words] delta over [reps] (default 4) single runs — the
    minimum so an amortized buffer doubling in one rep does not
    misreport.  Recorded by {!measure_arm} as the
    [Wl_obs.Store.alloc_key] extra, which the gate judges. *)

val observe : Arms.arm -> (string * Wl_json.Jsonx.t) list * (string * float) list
(** One instrumented run: the Metrics snapshot as a counter embedding,
    plus the arm's extras.  Resets Metrics/Prof around itself. *)

val measure_arm : ?runs:int -> Arms.arm -> Wl_obs.Store.point
(** {!measure} + {!measure_alloc} + {!observe}, as a trajectory point. *)

val run_suite :
  ?quick:bool ->
  ?runs:int ->
  ?handicaps:(string * int) list ->
  ?alloc_handicaps:(string * int) list ->
  ?note:string ->
  ?on_point:(Wl_obs.Store.point -> unit) ->
  unit ->
  Wl_obs.Store.entry
(** Measure the whole {!Arms.suite} into one trajectory entry for the
    current environment.  [handicaps] injects busy-wait regressions and
    [alloc_handicaps] synthetic per-op allocations (see
    {!Arms.with_handicap}/{!Arms.with_alloc_handicap}); [on_point] fires
    after each arm for progress reporting.  The entry records
    [Wl_util.Parallel.default_domains ()] as its domain count. *)
