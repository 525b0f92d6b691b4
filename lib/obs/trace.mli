(** Nestable timed spans with pluggable sinks.

    A span wraps one phase of an algorithm ([thm1.color],
    [thm6.subcolor], [parallel.worker], ...).  Spans nest per domain: a
    domain-local stack tracks depth, so traces from parallel sweeps come
    out as one track per domain, exactly how chrome://tracing / Perfetto
    render them.

    Tracing is off by default and costs one atomic load and a branch per
    {!with_span} call while off (the {e null sink}).  Installing a
    {!memory} sink turns it on; collected events can then be rendered as

    {ul
    {- Chrome trace-event JSON ({!to_chrome}) — load in Perfetto or
       chrome://tracing;}
    {- a human summary table ({!pp_summary}) or an indented span tree
       ({!pp_tree}) for terminal diagnosis.}} *)

type value = Int of int | Float of float | Str of string

type event = {
  name : string;
  tid : int;  (** domain id that emitted the span *)
  ts_us : float;  (** start, µs since trace start *)
  dur_us : float;  (** duration; [0.] for instants *)
  depth : int;  (** nesting depth within its domain at emit time *)
  instant : bool;
  args : (string * value) list;
}

type sink

val null : sink
val memory : unit -> sink
(** An in-process collector; safe to write from any domain. *)

val discard : sink
(** Spans run — probes fire, self-time is tracked — but every event is
    dropped.  Use when only the side effects of instrumentation are
    wanted (e.g. {!Prof} GC aggregates during a bench pass) without an
    unboundedly growing event list. *)

val set_sink : sink -> unit
(** Install a sink; tracing is enabled iff the sink is not {!null}.
    Resets the trace clock origin.  Install before spawning workers. *)

val clear : unit -> unit
(** Back to the null sink (tracing off). *)

val enabled : unit -> bool

val with_span : ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span.  The span is emitted even when the
    thunk raises.  When tracing is off this is just [f ()] — callers that
    want to avoid even building [args] can guard on {!enabled}. *)

val instant : ?args:(string * value) list -> string -> unit
(** A zero-duration marker event. *)

val span_between :
  ?args:(string * value) list -> string -> t0_us:float -> t1_us:float -> unit
(** Emit a complete span from timestamps measured elsewhere (raw
    {!Clock.now_us} readings; the trace origin is subtracted here).
    Used for phases whose endpoints straddle threads — e.g. the shard
    queue wait, stamped at enqueue and emitted at dequeue.  Negative
    intervals clamp to zero duration.

    Like {!with_span}, events carry a ["trace"] arg with the ambient
    {!Ctx} trace id (hex) whenever one is set, tying in-process spans to
    the distributed trace they serve. *)

(** {1 Span probes}

    The extension point {!Prof} uses to attach GC/allocation deltas to
    every span without this module knowing about [Gc]. *)

type probe = {
  on_start : unit -> unit;
      (** runs immediately before the span body, after the span's own
          bookkeeping has allocated — a GC reading taken here sees none
          of the harness *)
  on_stop : unit -> unit;
      (** runs first as the span closes, before any closing bookkeeping
          allocates: capture end readings here and nothing else *)
  on_emit : name:string -> dur_us:float -> self_us:float -> (string * value) list;
      (** runs after {!on_stop} with the span's figures; [self_us] is
          the duration minus direct children on the same domain.  May
          allocate freely (attributed to the enclosing span); returned
          args are appended to the emitted event. *)
}

val set_probe : probe option -> unit
(** Install (or remove) the global probe.  Like {!set_sink}, install
    before spawning worker domains.  Probes only fire while a non-null
    sink is installed. *)

val events : sink -> event list
(** Events collected by a {!memory} sink so far, in start-time order.
    Empty for {!null}. *)

val to_chrome : event list -> string
(** Chrome trace-event JSON: an object with a ["traceEvents"] array of
    complete (["ph":"X"]) and instant (["ph":"i"]) events. *)

val pp_tree : Format.formatter -> event list -> unit
(** Indented per-domain span tree with durations — what
    [stress --replay] prints. *)

val pp_summary : Format.formatter -> event list -> unit
(** Per-name aggregation: calls, total/min/max µs. *)

val validate_chrome : string -> (int, string) result
(** Parse a string as chrome trace-event JSON and check the schema that
    Perfetto requires: top-level object, ["traceEvents"] array, every
    event an object with string ["name"]/["ph"] and numeric ["ts"], and
    ["X"] events carrying a non-negative ["dur"].  Returns the event
    count.  Used by tests and by [wl trace-check]. *)
