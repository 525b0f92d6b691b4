(** Watermark arena for reusable int scratch buffers.

    A session-owned pool that hands out int arrays in a fixed
    acquisition order after each {!reset}, returning the same physical
    buffers round after round and growing each slot on demand.  At
    steady state a round performs {e zero} allocation, which is what
    keeps the hot solver spans ([thm1.color], [engine.add_path]) minor-
    word-quiet.

    Rules: buffers are valid until the next {!reset}; acquisition order
    must be deterministic per round; contents are not cleared on reuse
    (overwrite fully or use generation stamps); one domain at a time. *)

type t

val create : unit -> t

val reset : t -> unit
(** Return every slot to the pool.  O(1); buffers are retained. *)

val ints : t -> int -> int array
(** [ints a n] acquires the next slot's buffer, grown (power-of-two) so
    its length is at least [n].  Contents are unspecified — stale data
    from previous rounds is visible. *)

val mark : t -> int
(** Current watermark, for scoped acquisition: grab a mark, acquire
    buffers, {!release} back to the mark when done — the slots (and
    their grown buffers) are then reused by the next scoped caller. *)

val release : t -> int -> unit
(** Restore a watermark previously returned by {!mark}. *)
