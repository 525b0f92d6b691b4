(** The benchmark arms [wl bench] runs and gates on.

    Workloads mirror [bench/main.exe]'s perf engine at sizes tuned so a
    full gated run takes seconds.  The size is embedded in each arm's
    name, so the regression gate never compares across sizes; an arm
    that the [--quick] and full suites run at one size
    ([engine/full_solve/n=60], [route/backbone]) has one name in both. *)

type arm = {
  name : string;  (** bench id, e.g. ["thm1/color/n=400"] *)
  params : (string * int) list;  (** recorded in the trajectory point *)
  run : unit -> unit;  (** one operation — the timed unit *)
  extras : unit -> (string * float) list;
      (** derived figures read after the runs (e.g. the engine session's
          warm-hit rate) *)
}

val suite : ?quick:bool -> unit -> arm list
(** The standard arms: Theorem 1 coloring, dense DSATUR,
    conflict-graph construction, load computation, a warm engine
    add/query/remove cycle through the prebuilt-dipath hot entries, an
    engine step that always ends in a full solve ([engine/full_solve/n=60]),
    the full routing stage ([route/n=...]: {!Wl_core.Routing.select} over
    a fixed uniform request set, with the seed/final/lower-bound loads as
    extras), one route-backbone plan ([route/backbone]: [select ~k:4] and
    {!Wl_core.Solver.solve} on an 8x10 backbone with 400 uniform
    requests, whose internal cycles send the solve to its heuristic arm;
    the same three loads and the wavelengths as extras), and parsing
    that route arm's instance and request texts ([serial/parse/n=...]).
    [quick] (default false) switches to smaller instances under
    different bench names — for smoke tests and CI. *)

val with_handicap : ns:int -> string -> arm list -> arm list
(** Inject a busy-wait of [ns] nanoseconds after every run of the named
    arm — a synthetic regression for exercising the gate end-to-end.
    @raise Invalid_argument when no arm has that name. *)

val with_alloc_handicap : words:int -> string -> arm list -> arm list
(** Inject a synthetic allocation of [words] minor words after every run
    of the named arm — an allocation regression for exercising the
    [gc.minor_w] gate end-to-end without touching the arm's timing
    meaningfully.
    @raise Invalid_argument when no arm has that name. *)
