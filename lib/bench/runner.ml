(* Measurement engine for `wl bench`.

   Timing and observation are separate passes.  The timed pass runs with
   every instrument off — Metrics disabled, no trace sink, no GC probe —
   so ns/op is clean; it produces [runs] batch measurements that
   Store.summarize condenses to median/MAD/CV (median + MAD because a
   loaded CI machine produces one-sided outliers that poison a mean).
   The observation pass then runs the arm once more with Metrics + Prof
   enabled under the discard trace sink, capturing the counter embedding
   (including the prof.<span>.* GC counters) without accumulating
   events. *)

module Clock = Wl_obs.Clock
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Prof = Wl_obs.Prof
module Store = Wl_obs.Store

(* Seconds one arm's timed pass aims to take. *)
let target_s = 0.35

(* Time [f]: one warm-up, one calibration run to size batches so the
   whole measurement takes [target_s], then [runs] (default 7) timed
   batches; each batch yields one ns/op sample. *)
let measure ?(runs = 7) f =
  (* Fence off garbage from whatever ran before so it isn't collected on
     this arm's clock, then warm caches/branch predictors. *)
  Gc.major ();
  f ();
  (* One calibration run sizes each batch so the whole measurement takes
     ~target_s. *)
  let t0 = Clock.now_ns () in
  f ();
  let est_ns = max (Clock.now_ns () - t0) 100 in
  let per_batch_ns = target_s *. 1e9 /. float_of_int runs in
  let reps = max 1 (min 2000 (int_of_float (per_batch_ns /. float_of_int est_ns))) in
  let samples =
    List.init runs (fun _ ->
        let t0 = Clock.now_ns () in
        for _ = 1 to reps do
          f ()
        done;
        float_of_int (Clock.now_ns () - t0) /. float_of_int reps)
  in
  Store.summarize samples

(* Minor words per op, instruments off.  Warm runs first so retained
   scratch (solver state, engine buffers, DSATUR working sets) reaches
   its steady-state capacity; then the minimum over [reps] single-op
   deltas, so an amortized growth event (a buffer doubling) that lands
   in one rep does not misreport the steady state.  Recorded as the
   [Store.alloc_key] extra, which the gate judges. *)
let measure_alloc f =
  let reps = 4 in
  f ();
  f ();
  f ();
  let best = ref infinity in
  for _ = 1 to reps do
    let w0 = Gc.minor_words () in
    f ();
    let dw = Gc.minor_words () -. w0 in
    if dw < !best then best := dw
  done;
  !best

(* One instrumented run: the Metrics snapshot as a counter embedding,
   plus the arm's extras.  Resets Metrics around itself. *)
let observe (arm : Arms.arm) =
  Metrics.reset ();
  Metrics.set_enabled true;
  Prof.enable ();
  Trace.set_sink Trace.discard;
  Fun.protect
    ~finally:(fun () ->
      Trace.clear ();
      Prof.disable ();
      Metrics.set_enabled false)
    arm.Arms.run;
  let counters =
    List.map
      (fun (name, inst) -> (name, Store.json_of_instrument inst))
      (Metrics.snapshot ())
  in
  let extras = arm.Arms.extras () in
  Metrics.reset ();
  (counters, extras)

let measure_arm ?runs (arm : Arms.arm) =
  let sample = measure ?runs arm.Arms.run in
  let alloc_w = measure_alloc arm.Arms.run in
  let counters, extras = observe arm in
  {
    Store.name = arm.Arms.name;
    params = arm.Arms.params;
    extras = extras @ [ (Store.alloc_key, alloc_w) ];
    sample;
    baseline_ns = None;
    counters;
  }

let run_suite ?(quick = false) ?runs ?(handicaps = []) ?(alloc_handicaps = [])
    ?note ?(on_point = fun (_ : Store.point) -> ()) () =
  let arms = Arms.suite ~quick () in
  let arms =
    List.fold_left
      (fun arms (name, ns) -> Arms.with_handicap ~ns name arms)
      arms handicaps
  in
  let arms =
    List.fold_left
      (fun arms (name, words) -> Arms.with_alloc_handicap ~words name arms)
      arms alloc_handicaps
  in
  let points =
    List.map
      (fun arm ->
        let p = measure_arm ?runs arm in
        on_point p;
        p)
      arms
  in
  Store.make ?note ~domains:(Wl_util.Parallel.default_domains ()) points
