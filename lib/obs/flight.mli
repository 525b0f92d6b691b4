(** Per-session flight recorder: a fixed-size ring of packed op records.

    Every engine op — accepted or rejected — leaves one record in the
    session's ring: op kind, outcome class (warm hit / fresh color /
    repair / fallback / ...), arc count, duration, palette and [pi] at
    completion.  Recording after {!create} is allocation-free (plain int
    stores into a pre-sized array), so it stays inside the engine's
    zero-minor-alloc warm paths; the ring keeps the last [capacity] ops
    and overwrites silently.

    Dumps render the recorded tail in one format, a Chrome/Perfetto
    trace: each op becomes a {!Trace.event} rendered by
    {!Trace.to_chrome}, named by its op kind and carrying its seq,
    outcome, arcs, palette and pi (plus trace id and tenant when set) as
    args, with its start and duration to the nanosecond.  So
    [Trace.validate_chrome] and [wl trace-check] accept flight dumps
    unchanged.  The engine calls {!trigger} when an audit fails or an op
    errors; an installed {!set_dump_handler} (e.g. [wl session
    --flight-dump]) then persists the dump.  The per-recorder latch
    means a cascade of failures dumps once, not once per op — {!rearm}
    resets it. *)

type t

type kind = Add_path | Remove_path | Add_arc | Full_solve | Audit

type outcome =
  | Warm_hit  (** reused a free wavelength on the warm path *)
  | Fresh_color  (** opened wavelength [palette + 1] (load grew) *)
  | Repair  (** Kempe repair freed a wavelength *)
  | Fallback  (** warm path gave up; session went dirty *)
  | Dirty  (** op applied on an already-dirty session *)
  | Warm_remove  (** removal kept the palette *)
  | Shrink  (** removal retired the top wavelength *)
  | Ok  (** op with no warmth classification (add_arc, audit pass) *)
  | Rejected  (** op refused (validation, bad index, cycle, ...) *)
  | Failed  (** audit violation *)

val create : ?capacity:int -> ?tid:int -> unit -> t
(** [capacity] (default 1024) is rounded up to a power of two; [tid]
    labels Chrome-trace rows (use the session id).  Timestamps are
    recorded relative to the first op. *)

val set_label : t -> string -> unit
(** Attach a human label (the owning tenant) rendered as a ["tenant"]
    arg on dumped events and embedded in drain-dump filenames.  Must be
    filename- and JSON-safe; tenant names ([Proto.tenant_ok]) are. *)

val label : t -> string
(** The attached label, [""] until {!set_label}. *)

val record :
  t ->
  kind ->
  outcome ->
  t_ns:int ->
  dur_ns:int ->
  arcs:int ->
  palette:int ->
  pi:int ->
  trace:int ->
  unit
(** Append one op record.  Allocation-free; [t_ns] is an absolute
    monotonic stamp (e.g. {!Clock.now_ns}), [dur_ns] clamps to [>= 0].
    [trace] is the distributed trace id ({!Ctx}) driving the op, [0]
    when untraced — a required (not optional) argument because a
    non-[None] optional would box on the zero-alloc path. *)

val total : t -> int
(** Ops recorded over the recorder's lifetime (may exceed capacity). *)

val to_chrome : t -> string
(** [merged_chrome [t]]: a complete Chrome trace document of the
    retained tail, oldest first ("X" events, cat ["wl"], [tid] = session
    id, seq/outcome/arcs/palette/pi — plus trace/tenant when set — in
    [args]). *)

val merged_chrome : ?last:int -> t list -> string
(** One Chrome document over several rings (the TraceDump RPC payload):
    each ring keeps its own [tid] track and carries its {!label} as a
    ["tenant"] arg, with per-ring timestamps rebased onto the earliest
    ring origin so tracks share one time axis.  With [last], each ring
    contributes at most its [last] newest ops. *)

(** {2 Automatic dumps} *)

val set_dump_handler : (reason:string -> t -> unit) option -> unit
(** Install (or clear) the process-wide dump sink.  The engine calls
    {!trigger} on audit failure or op error; with no handler installed a
    trigger only sets the latch. *)

val trigger : reason:string -> t -> unit
(** Fire the dump handler for this recorder, at most once until
    {!rearm}.  Cheap (one load) when already latched or no handler. *)

val rearm : t -> unit
(** Re-open the latch, so the next {!trigger} fires the handler again. *)
