(* Per-span GC/allocation telemetry, implemented as a Trace probe.

   On span entry we push a [Gc.quick_stat] reading onto a per-domain
   stack; on exit we pop it, delta against a fresh reading, and

   - attach the deltas (plus the span's self-time) to the Trace event,
   - fold them into a per-span-name aggregation table, and
   - mirror them into [prof.<span>.*] Metrics counters so they ride
     along in every Metrics snapshot (and hence in bench counter
     embeddings).

   Deltas are inclusive of children: a parent span's minor_words counts
   what its callees allocated too, exactly like its duration.  Self-time
   is the one exclusive figure (computed by Trace).  [Gc.quick_stat]
   reads per-domain accumulators without forcing a collection, so the
   probe itself is cheap — but it does allocate the stat record, which
   is why profiling is opt-in and bench loops keep it off while timing. *)

module Metrics = Metrics

type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let zero_gc =
  {
    minor_words = 0.;
    major_words = 0.;
    promoted_words = 0.;
    minor_collections = 0;
    major_collections = 0;
  }

type row = {
  span : string;
  calls : int;
  total_us : float;
  self_us : float;
  gc : gc_delta;
}

(* Aggregation cell per span name.  Mutated under [lock]; spans wrap
   whole algorithm phases, so the rate is far too low for the mutex to
   matter.  The Metrics counters are resolved once per name and cached
   here so the hot path never touches the registry lock. *)
type cell = {
  mutable c_calls : int;
  mutable c_total_us : float;
  mutable c_self_us : float;
  mutable c_minor_w : float;
  mutable c_major_w : float;
  mutable c_promoted_w : float;
  mutable c_minor_gcs : int;
  mutable c_major_gcs : int;
  m_minor_w : Metrics.counter;
  m_major_w : Metrics.counter;
  m_promoted_w : Metrics.counter;
  m_minor_gcs : Metrics.counter;
  m_major_gcs : Metrics.counter;
  m_self_ns : Metrics.counter;
  m_calls : Metrics.counter;
}

let lock = Mutex.create ()
let table : (string, cell) Hashtbl.t = Hashtbl.create 32

let cell_of name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some c -> c
      | None ->
        let counter field = Metrics.counter ("prof." ^ name ^ "." ^ field) in
        let c =
          {
            c_calls = 0;
            c_total_us = 0.;
            c_self_us = 0.;
            c_minor_w = 0.;
            c_major_w = 0.;
            c_promoted_w = 0.;
            c_minor_gcs = 0;
            c_major_gcs = 0;
            m_minor_w = counter "minor_words";
            m_major_w = counter "major_words";
            m_promoted_w = counter "promoted_words";
            m_minor_gcs = counter "minor_gcs";
            m_major_gcs = counter "major_gcs";
            m_self_ns = counter "self_ns";
            m_calls = counter "calls";
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
let enabled () = Atomic.get on

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

let on_emit ~name ~dur_us ~self_us =
  let s = Domain.DLS.get stack_key in
  if s.len = 0 then [] (* probe installed mid-span; nothing to delta *)
  else begin
    let i = s.len - 1 in
    s.len <- i;
    let d =
      {
        minor_words = s.minor1.(i) -. s.minor0.(i);
        major_words = s.major1.(i) -. s.major0.(i);
        promoted_words = s.prom1.(i) -. s.prom0.(i);
        minor_collections = s.mgc1.(i) - s.mgc0.(i);
        major_collections = s.jgc1.(i) - s.jgc0.(i);
      }
    in
    let c = cell_of name in
    Mutex.protect lock (fun () ->
        c.c_calls <- c.c_calls + 1;
        c.c_total_us <- c.c_total_us +. dur_us;
        c.c_self_us <- c.c_self_us +. self_us;
        c.c_minor_w <- c.c_minor_w +. d.minor_words;
        c.c_major_w <- c.c_major_w +. d.major_words;
        c.c_promoted_w <- c.c_promoted_w +. d.promoted_words;
        c.c_minor_gcs <- c.c_minor_gcs + d.minor_collections;
        c.c_major_gcs <- c.c_major_gcs + d.major_collections);
    Metrics.add c.m_minor_w (int_of_float d.minor_words);
    Metrics.add c.m_major_w (int_of_float d.major_words);
    Metrics.add c.m_promoted_w (int_of_float d.promoted_words);
    Metrics.add c.m_minor_gcs d.minor_collections;
    Metrics.add c.m_major_gcs d.major_collections;
    Metrics.add c.m_self_ns (int_of_float (self_us *. 1e3));
    Metrics.incr c.m_calls;
    [
      ("self_us", Trace.Float self_us);
      ("gc.minor_w", Trace.Float d.minor_words);
      ("gc.major_w", Trace.Float d.major_words);
      ("gc.promoted_w", Trace.Float d.promoted_words);
      ("gc.minor_gcs", Trace.Int d.minor_collections);
      ("gc.major_gcs", Trace.Int d.major_collections);
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

let reset () =
  Mutex.protect lock (fun () -> Hashtbl.reset table)

let snapshot () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold
        (fun span c acc ->
          if c.c_calls = 0 then acc
          else
            {
              span;
              calls = c.c_calls;
              total_us = c.c_total_us;
              self_us = c.c_self_us;
              gc =
                {
                  minor_words = c.c_minor_w;
                  major_words = c.c_major_w;
                  promoted_words = c.c_promoted_w;
                  minor_collections = c.c_minor_gcs;
                  major_collections = c.c_major_gcs;
                };
            }
            :: acc)
        table [])
  |> List.sort (fun a b -> String.compare a.span b.span)

let pp_summary ppf () =
  let rows = snapshot () in
  if rows = [] then Format.fprintf ppf "(no profiled spans)"
  else begin
    Format.fprintf ppf "@[<v>%-28s %8s %12s %12s %14s %8s %8s" "span" "calls"
      "total ms" "self ms" "minor words" "min.gcs" "maj.gcs";
    List.iter
      (fun r ->
        Format.fprintf ppf "@,%-28s %8d %12.2f %12.2f %14.0f %8d %8d" r.span
          r.calls (r.total_us /. 1e3) (r.self_us /. 1e3) r.gc.minor_words
          r.gc.minor_collections r.gc.major_collections)
      rows;
    Format.fprintf ppf "@]"
  end
