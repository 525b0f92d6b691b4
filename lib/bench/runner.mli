(** Measurement engine for [wl bench].

    Each arm is measured in two separate passes: a timed pass with every
    instrument off (clean ns/op, summarized to median/MAD/CV over
    repeated batches), then one observation pass with {!Wl_obs.Metrics}
    and {!Wl_obs.Prof} enabled under the discard trace sink, which
    captures the counter embedding — including the [prof.<span>.*]
    GC/allocation mirrors — and the arm's extras. *)

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
