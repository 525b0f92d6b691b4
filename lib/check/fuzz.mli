(** The fuzzing driver: run oracles over seed ranges, shrink what fails.
    It is the one driver for the differential oracles and the theorem
    sweeps alike ([wl fuzz]).

    Seeds run domain-parallel ({!Wl_util.Parallel}): in one pass, or in
    waves of 128 under a time budget; failures are collected, sorted by seed, and minimized sequentially (shrinking is
    deterministic, so the resulting reproducers are too).  With
    {!Wl_obs.Metrics} enabled each oracle maintains
    [fuzz.<check>.seeds]/[.failures] counters and a per-seed latency
    histogram ([fuzz.<check>.ns]); shrinking records a
    [fuzz.shrink.attempts] histogram, and with {!Wl_obs.Trace} enabled
    each seed runs in a [fuzz.<check>] span and each minimization in a
    [fuzz.shrink] span.

    The JSON summary contains no timing and no machine state, so a run at
    a fixed seed range is byte-stable — the golden tests diff it.  An
    engine-oracle failure also carries its reproducer's flight dump, a
    Chrome trace, outside the JSON. *)

type failure = {
  check : string;
  seed : int;
  reason : string;  (** as first observed, before shrinking *)
  shrunk : Shrink.result option;
      (** [None] when the seed cannot be shrunk: its generator raised
          (the reason is then the exception text), or its subject passed
          when re-checked alone.  Such a failure has no reproducer:
          {!to_json} writes ["shrunk": null] and {!write_corpus} skips
          it. *)
  flight : string option;
      (** engine-oracle failures carry the shrunk reproducer's flight
          dump as a Chrome trace — see {!Oracle.take_flight}.  Not part
          of {!to_json} (timings are nondeterministic). *)
}

type check_run = {
  check : string;
  seeds_run : int;  (** < requested seeds only when a time budget hit *)
  failures : failure list;  (** ascending seed order *)
}

type summary = {
  runs : check_run list;  (** in the order the oracles were given *)
  total_seeds : int;
  total_failures : int;
}

val run :
  ?domains:int ->
  ?seed0:int ->
  ?budget_s:float ->
  ?shrink_attempts:int ->
  seeds:int ->
  Oracle.t list ->
  summary
(** Run each oracle over seeds [seed0 .. seed0 + seeds - 1] ([seed0]
    defaults to 0).  [budget_s] is a global wall-clock budget: no new wave
    starts after it elapses (already-running seeds finish), which is what
    bounds the CI smoke-run.  [shrink_attempts] is per-failure (see
    {!Shrink.minimize}). *)

val to_json : ?pretty:bool -> summary -> string
(** Deterministic machine summary, schema [wl-fuzz] version 1; includes
    each shrunk reproducer's [.wl] (and [.wlops]) text. *)

val pp : Format.formatter -> summary -> unit
(** Human summary: one line per check, plus the shrunk reproducer for
    every failure and the op count of its flight dump, if any. *)

val write_corpus : dir:string -> summary -> string list
(** Write every failure's shrunk reproducer into a corpus directory as
    [<check>.s<seed>.wl] (see {!Corpus.add}), plus — for failures that
    carry one — the flight dump as [<check>.s<seed>.flight.trace.json];
    returns the paths written. *)
