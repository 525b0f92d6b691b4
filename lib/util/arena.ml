(* A watermark arena for reusable int scratch buffers.

   Hot solver paths (Theorem 1 sweep, engine Kempe repair, DSATUR) need
   a fistful of int arrays per call.  Allocating them per call is what
   keeps those spans GC-noisy, so instead each session owns an arena:
   buffers are acquired in a fixed order after every [reset], and the
   arena hands back the *same* physical arrays round after round,
   growing each slot on demand (grow-only, amortized — a steady-state
   round performs no allocation at all).

   Ownership rules (see DESIGN.md "Allocation discipline"):
   - a buffer is valid until the next [reset]; never stash it;
   - acquisition order must be deterministic per round, so slot k always
     maps to the same logical buffer (callers bind all buffers up front);
   - contents are NOT cleared on reuse — callers either overwrite fully
     or use generation stamps to invalidate stale entries;
   - an arena belongs to one domain at a time (no internal locking).

   Buffers are requested with a *capacity*, not a length: [ints a n]
   returns an array of length >= n.  Callers track their own logical
   lengths, which is what the stamp/watermark discipline needs anyway. *)

type t = {
  mutable slots : int array array;  (* slot k -> its reusable buffer *)
  mutable used : int;  (* watermark: slots handed out since reset *)
}

let create () = { slots = Array.make 8 [||]; used = 0 }

(* Growth events are the arena's only steady-state health signal — a
   nonzero rate after warmup means some caller's capacity demand is still
   climbing.  Exposed process-wide for the OpenMetrics scrape. *)
let c_grow = Wl_obs.Metrics.counter "arena.grow_count"

let reset a = a.used <- 0

(* Next power of two >= n, so repeated +1 growth does not reallocate
   every round. *)
let round_up n =
  let c = ref 8 in
  while !c < n do
    c := !c * 2
  done;
  !c

let ints a n =
  let k = a.used in
  if k = Array.length a.slots then begin
    let bigger = Array.make (2 * k) [||] in
    Array.blit a.slots 0 bigger 0 k;
    a.slots <- bigger
  end;
  let buf = a.slots.(k) in
  let buf =
    if Array.length buf >= n then buf
    else begin
      let fresh = Array.make (round_up n) 0 in
      a.slots.(k) <- fresh;
      Wl_obs.Metrics.incr c_grow;
      fresh
    end
  in
  a.used <- k + 1;
  buf

let mark a = a.used

let release a m =
  if m < 0 || m > a.used then invalid_arg "Arena.release: bad mark";
  a.used <- m
