(* Per-span GC/allocation telemetry, implemented as a Trace probe.

   On span entry we push a [Gc.quick_stat] reading onto a per-domain
   stack; on exit we pop it, delta against a fresh reading, and

   - attach the deltas (plus the span's self-time) to the Trace event,
   - add them to [prof.<span>.*] Metrics counters, the one per-span
     aggregate: every Metrics snapshot (and hence [wl analyze --stats],
     the bench counter embeddings and [wl report]) carries them.

   Deltas are inclusive of children: a parent span's minor_words counts
   what its callees allocated too, exactly like its duration.  Self-time
   is the one exclusive figure (computed by Trace).  [Gc.quick_stat]
   reads per-domain accumulators without forcing a collection, so the
   probe itself is cheap — but it does allocate the stat record, which
   is why profiling is opt-in and bench loops keep it off while timing. *)

module Metrics = Metrics

(* The counters of one span name, resolved once per name and cached so
   the hot path never touches the Metrics registry lock.  Spans wrap
   whole algorithm phases, so the rate is far too low for this lookup's
   mutex to matter. *)
type counters = {
  minor_w : Metrics.counter;
  major_w : Metrics.counter;
  promoted_w : Metrics.counter;
  minor_gcs : Metrics.counter;
  major_gcs : Metrics.counter;
  self_ns : Metrics.counter;
  calls : Metrics.counter;
}

let lock = Mutex.create ()
let table : (string, counters) Hashtbl.t = Hashtbl.create 32

let counters_of name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some c -> c
      | None ->
        let counter field = Metrics.counter ("prof." ^ name ^ "." ^ field) in
        let c =
          {
            minor_w = counter "minor_words";
            major_w = counter "major_words";
            promoted_w = counter "promoted_words";
            minor_gcs = counter "minor_gcs";
            major_gcs = counter "major_gcs";
            self_ns = counter "self_ns";
            calls = counter "calls";
          }
        in
        Hashtbl.add table name c;
        c)

(* Per-domain stack of span-entry readings, parallel to Trace's span
   nesting on that domain.  Minor words come from [Gc.minor_words]
   rather than the quick_stat record: on OCaml 5.1 the record's
   [minor_words] field only advances at minor collections, so a span
   that allocates without triggering one would read as zero, while
   [Gc.minor_words ()] includes the current allocation pointer.

   The stack is a set of preallocated parallel arrays, not a list of
   reading records: pushing and popping must not allocate, or every
   span would report the probe's own minor words.  Float payloads live
   in float arrays (unboxed storage — [Gc.minor_words] is an unboxed
   [@@noalloc] external, so the store never materializes a box), int
   counts in int arrays.  Start readings order the captures so the
   [Gc.quick_stat] record itself is excluded: quick_stat first, minor
   words LAST in [on_start]; minor words FIRST in [on_stop], quick_stat
   after (its record is then charged to the enclosing span — probe cost
   is always attributed to the parent, never the measured span).
   Growth only happens the first time a new nesting depth is reached,
   inside the parent's window; steady state never grows. *)
type dstack = {
  mutable len : int;
  mutable minor0 : float array;  (* start readings, indexed by depth *)
  mutable major0 : float array;
  mutable prom0 : float array;
  mutable mgc0 : int array;
  mutable jgc0 : int array;
  mutable minor1 : float array;  (* end readings: on_stop -> on_emit *)
  mutable major1 : float array;
  mutable prom1 : float array;
  mutable mgc1 : int array;
  mutable jgc1 : int array;
}

let new_dstack () =
  let fa () = Array.make 16 0. and ia () = Array.make 16 0 in
  {
    len = 0;
    minor0 = fa ();
    major0 = fa ();
    prom0 = fa ();
    mgc0 = ia ();
    jgc0 = ia ();
    minor1 = fa ();
    major1 = fa ();
    prom1 = fa ();
    mgc1 = ia ();
    jgc1 = ia ();
  }

let grow_dstack s =
  let gf a = let b = Array.make (2 * Array.length a) 0. in Array.blit a 0 b 0 (Array.length a); b
  and gi a = let b = Array.make (2 * Array.length a) 0 in Array.blit a 0 b 0 (Array.length a); b in
  s.minor0 <- gf s.minor0;
  s.major0 <- gf s.major0;
  s.prom0 <- gf s.prom0;
  s.mgc0 <- gi s.mgc0;
  s.jgc0 <- gi s.jgc0;
  s.minor1 <- gf s.minor1;
  s.major1 <- gf s.major1;
  s.prom1 <- gf s.prom1;
  s.mgc1 <- gi s.mgc1;
  s.jgc1 <- gi s.jgc1

let stack_key = Domain.DLS.new_key new_dstack

let on = Atomic.make false
let on_start () =
  let s = Domain.DLS.get stack_key in
  let i = s.len in
  if i = Array.length s.minor0 then grow_dstack s;
  s.len <- i + 1;
  let st = Gc.quick_stat () in
  s.major0.(i) <- st.Gc.major_words;
  s.prom0.(i) <- st.Gc.promoted_words;
  s.mgc0.(i) <- st.Gc.minor_collections;
  s.jgc0.(i) <- st.Gc.major_collections;
  (* Last, so the quick_stat record above is outside the window. *)
  s.minor0.(i) <- Gc.minor_words ()

let on_stop () =
  let s = Domain.DLS.get stack_key in
  if s.len > 0 then begin
    let i = s.len - 1 in
    (* First, before anything here can allocate. *)
    s.minor1.(i) <- Gc.minor_words ();
    let st = Gc.quick_stat () in
    s.major1.(i) <- st.Gc.major_words;
    s.prom1.(i) <- st.Gc.promoted_words;
    s.mgc1.(i) <- st.Gc.minor_collections;
    s.jgc1.(i) <- st.Gc.major_collections
  end

let on_emit ~name ~self_us =
  let s = Domain.DLS.get stack_key in
  if s.len = 0 then [] (* probe installed mid-span; nothing to delta *)
  else begin
    let i = s.len - 1 in
    s.len <- i;
    let minor_w = s.minor1.(i) -. s.minor0.(i) in
    let major_w = s.major1.(i) -. s.major0.(i) in
    let promoted_w = s.prom1.(i) -. s.prom0.(i) in
    let minor_gcs = s.mgc1.(i) - s.mgc0.(i) in
    let major_gcs = s.jgc1.(i) - s.jgc0.(i) in
    let c = counters_of name in
    Metrics.add c.minor_w (int_of_float minor_w);
    Metrics.add c.major_w (int_of_float major_w);
    Metrics.add c.promoted_w (int_of_float promoted_w);
    Metrics.add c.minor_gcs minor_gcs;
    Metrics.add c.major_gcs major_gcs;
    Metrics.add c.self_ns (int_of_float (self_us *. 1e3));
    Metrics.incr c.calls;
    [
      ("self_us", Trace.Float self_us);
      ("gc.minor_w", Trace.Float minor_w);
      ("gc.major_w", Trace.Float major_w);
      ("gc.promoted_w", Trace.Float promoted_w);
      ("gc.minor_gcs", Trace.Int minor_gcs);
      ("gc.major_gcs", Trace.Int major_gcs);
    ]
  end

let enable () =
  if not (Atomic.get on) then begin
    Atomic.set on true;
    Trace.set_probe (Some { Trace.on_start; on_stop; on_emit })
  end

let disable () =
  Atomic.set on false;
  Trace.set_probe None
