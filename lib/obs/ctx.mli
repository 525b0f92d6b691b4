(** Distributed trace context.

    A context is a (trace id, span id, parent span id) triple of 62-bit
    integers.  Trace id [0] is reserved for "no context" ({!none}), so a
    context travels as plain ints through hot paths that must not
    allocate — the flight recorder and HDR exemplar latches store the
    trace id directly as an [int] field.

    Ids come from a deterministic splitmix generator seeded by the
    caller ({!generator}), matching the repo-wide seeded-RNG discipline:
    the same seed yields the same trace ids, which is what lets the
    golden Chrome-trace fixture pin a full distributed trace
    byte-for-byte.

    The {e ambient} context is a per-domain cell ({!set} /
    {!current}): the serve layer installs the propagated context before
    running engine work, and the engine reads just the trace id with the
    zero-allocation {!current_trace} from its hot paths. *)

type t = {
  trace_id : int;  (** 62-bit, nonzero; [0] means "no context" *)
  span_id : int;  (** 62-bit, nonzero when the context is real *)
  parent_id : int;  (** span id of the parent, [0] at the root *)
}

val none : t
(** The absent context: all fields [0]. *)

val is_none : t -> bool

(** {1 Deterministic id generation} *)

type gen
(** A stateful splitmix id stream.  Not thread-safe; give each client
    its own. *)

val generator : int -> gen
(** [generator seed] — equal seeds yield equal id streams. *)

val root : gen -> t
(** A fresh root context: new trace id, new span id, parent [0]. *)

val child : gen -> t -> t
(** A child context under [parent]: same trace id, fresh span id,
    parent set to [parent.span_id].  [child g none] is a fresh root. *)

(** {1 Ambient (per-domain) context} *)

val set : t -> unit
(** Install [ctx] as this domain's ambient context.  Allocation-free
    after the domain's first call. *)

val current : unit -> t
(** This domain's ambient context; {!none} if never set. *)

val current_trace : unit -> int
(** [ (current ()).trace_id ] without constructing a [t] — safe to call
    from zero-allocation hot paths. *)

(** {1 Wire form} *)

val to_string : t -> string
(** ["TRACE:SPAN"] in lowercase hex (parent id is not carried: the
    receiver becomes the child).  Raises [Invalid_argument] on
    {!none} — absent contexts are simply not encoded. *)

val of_string : string -> t option
(** Parse ["TRACE:SPAN"].  Strict: both fields nonempty lowercase or
    uppercase hex of at most 16 digits, trace id nonzero.  [None] on
    anything else — never raises. *)

val hex : int -> string
(** Lowercase hex rendering of a bare id, as used in exemplar labels. *)
