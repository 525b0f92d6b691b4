(** Length-prefixed framing for the [wlrpc/1] wire protocol.

    A frame is a 4-byte big-endian payload length followed by the payload
    bytes.  The length is bounded by 16 MiB so a hostile or corrupt prefix
    can never make a reader allocate unboundedly: readers check the prefix
    {e before} allocating the payload buffer, and writers raise
    [Invalid_argument] on a larger payload.

    Two reader surfaces share one decoder:

    {ul
    {- {!read} / {!write} for blocking file descriptors (the daemon and
       the remote client);}
    {- {!unframe} for in-memory byte strings (the in-process loopback
       transport and the frame-level fuzz oracle).}}

    Every malformed input — truncated prefix, truncated payload, oversized
    or zero length — is reported as [Error (Parse _)] (or [Io] for real
    socket failures); the decoder never raises and never blocks past the
    bytes it was given. *)

open Wl_core

(** {1 In-memory codec} *)

val frame : string -> string
(** Prefix a payload with its length.
    @raise Invalid_argument when the payload is empty or exceeds
    {!max_frame} — both are unrepresentable on the wire by design. *)

val unframe : string -> int -> (string * int, Error.t) result
(** [unframe buf off] decodes one frame starting at byte [off]: the
    payload and the offset just past it.  [Error (Parse _)] on a
    truncated prefix, a zero or oversized length, or a payload running
    past the end of [buf].  Total: never raises, for any input. *)

val unframe_all : string -> (string list, Error.t) result
(** Decode a whole buffer as consecutive frames. *)

(** {1 File-descriptor transport} *)

val write : Unix.file_descr -> string -> (unit, Error.t) result
(** Write one frame, handling short writes.  [Error (Io _)] on a closed
    or broken descriptor; raises [Invalid_argument] like {!frame} on an
    unrepresentable payload. *)

val read : Unix.file_descr -> (string option, Error.t) result
(** Read one frame.  [Ok None] on a clean EOF at a frame boundary;
    [Error (Parse _)] on EOF mid-frame or a bad length prefix;
    [Error (Io _)] on a socket error. *)
