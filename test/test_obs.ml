(* Observability (Wl_obs): span nesting and timing, counter correctness
   under domain-parallel maps, chrome trace-event JSON round-trips, and
   the zero-overhead contract of the disabled path on the Theorem 1 hot
   loop.  Metrics and tracing are global state, so every test restores
   the disabled defaults before returning. *)

open Helpers
module Metrics = Wl_obs.Metrics
module Hdr = Wl_obs.Hdr
module Trace = Wl_obs.Trace
module Clock = Wl_obs.Clock
module Prof = Wl_obs.Prof
module Parallel = Wl_util.Parallel
module Theorem1 = Wl_core.Theorem1
module Solver = Wl_core.Solver
module Oracle = Wl_check.Oracle
module Fuzz = Wl_check.Fuzz

let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

let with_trace f =
  let sink = Trace.memory () in
  Trace.set_sink sink;
  Fun.protect ~finally:Trace.clear (fun () -> f sink)

(* --- spans --------------------------------------------------------------- *)

let test_span_nesting () =
  let events =
    with_trace (fun sink ->
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1));
            Trace.instant "mark");
        Trace.events sink)
  in
  check_int "three events" 3 (List.length events);
  let find name = List.find (fun e -> e.Trace.name = name) events in
  let outer = find "outer" and inner = find "inner" and mark = find "mark" in
  check_int "outer at depth 0" 0 outer.Trace.depth;
  check_int "inner at depth 1" 1 inner.Trace.depth;
  check "instant flagged" true mark.Trace.instant;
  check "inner starts after outer" true (inner.Trace.ts_us >= outer.Trace.ts_us);
  check "inner contained in outer" true
    (inner.Trace.ts_us +. inner.Trace.dur_us
    <= outer.Trace.ts_us +. outer.Trace.dur_us +. 1e-3);
  check "durations non-negative" true
    (List.for_all (fun e -> e.Trace.dur_us >= 0.) events);
  (* [events] promises start-time order. *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Trace.ts_us <= b.Trace.ts_us && sorted rest
    | _ -> true
  in
  check "start-time sorted" true (sorted events)

let test_span_survives_raise () =
  let events =
    with_trace (fun sink ->
        (try Trace.with_span "doomed" (fun () -> failwith "boom")
         with Failure _ -> ());
        Trace.events sink)
  in
  check_int "span emitted despite raise" 1 (List.length events)

(* --- counters under parallel maps ---------------------------------------- *)

let test_counters_under_map_array () =
  let c = Metrics.counter "test.obs.items" in
  List.iter
    (fun domains ->
      with_metrics (fun () ->
          let n = 500 in
          let out =
            Parallel.init ~domains n (fun x ->
                Metrics.incr c;
                x * x)
          in
          check_int
            (Printf.sprintf "all %d increments seen at %d domains" n domains)
            n (counter_value "test.obs.items");
          check
            (Printf.sprintf "map result intact at %d domains" domains)
            true
            (Array.for_all Fun.id (Array.mapi (fun i y -> y = i * i) out))))
    [ 1; 2; 4 ]

let test_histogram_snapshot () =
  with_metrics (fun () ->
      let h = Metrics.histogram "test.obs.hist" in
      List.iter (Metrics.observe h) [ 1; 3; 3; 7; 60 ];
      let s = histogram_snapshot "test.obs.hist" in
      check_int "count" 5 s.Hdr.count;
      check_int "sum" 74 s.Hdr.sum;
      check_int "min" 1 s.Hdr.min;
      check_int "max" 60 s.Hdr.max;
      (* Values below 64 get a bucket each, so quantiles are exact. *)
      check_int "p50" 3 s.Hdr.p50)

(* A histogram's Hdr.t is made on the first enabled observe.  Before that
   it reads as empty (the registry's snapshot leaves it out); two domains
   racing to make it agree on one, so no observation is lost. *)
let test_histogram_created_on_first_observe () =
  let count () = (histogram_snapshot "test.obs.hist.lazy").Hdr.count in
  Metrics.reset ();
  let h = Metrics.histogram "test.obs.hist.lazy" in
  Metrics.observe h 5;
  check_int "empty while disabled" 0 (count ());
  with_metrics (fun () ->
      let n = 10_000 and ready = Atomic.make 0 in
      List.init 2 (fun _ ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              while Atomic.get ready < 2 do
                Domain.cpu_relax ()
              done;
              for i = 1 to n do
                Metrics.observe h i
              done))
      |> List.iter Domain.join;
      check_int "every racing observation recorded" (2 * n) (count ()))

let test_disabled_updates_ignored () =
  Metrics.reset ();
  let c = Metrics.counter "test.obs.off" in
  Metrics.incr c;
  Metrics.add c 10;
  check_int "updates dropped while disabled" 0 (counter_value "test.obs.off")

(* --- chrome trace JSON ---------------------------------------------------- *)

let test_chrome_roundtrip () =
  let events =
    with_trace (fun sink ->
        Trace.with_span
          ~args:[ ("n", Trace.Int 7); ("tag", Trace.Str "a\"b\\c") ]
          "solve"
          (fun () -> Trace.instant "checkpoint");
        Trace.events sink)
  in
  let json = Trace.to_chrome events in
  (match Trace.validate_chrome json with
  | Ok n -> check_int "all events survive the round-trip" (List.length events) n
  | Error msg -> Alcotest.failf "generated trace rejected: %s" msg)

let test_chrome_rejects_malformed () =
  let rejected s = Result.is_error (Trace.validate_chrome s) in
  check "empty input" true (rejected "");
  check "top-level array" true (rejected "[]");
  check "traceEvents not an array" true (rejected {|{"traceEvents": 3}|});
  check "event missing name" true
    (rejected {|{"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]}|});
  check "negative dur on X event" true
    (rejected
       {|{"traceEvents": [{"name": "s", "ph": "X", "ts": 0, "dur": -5}]}|});
  check "trailing garbage" true (rejected {|{"traceEvents": []} extra|});
  check "minimal valid trace accepted" true
    (Trace.validate_chrome {|{"traceEvents": []}|} = Ok 0)

(* --- clock ----------------------------------------------------------------- *)

let test_clock_monotonic () =
  (* The previous gettimeofday clock could go backwards under NTP slew;
     the monotonic stub never may, and keeps a near-zero origin. *)
  let prev = ref (Clock.now_ns ()) in
  check "origin near zero" true (!prev >= 0);
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    if t < !prev then Alcotest.failf "clock went backwards: %d -> %d" !prev t;
    prev := t
  done;
  let us = Clock.now_us () in
  check "now_us consistent with now_ns" true
    (Float.abs ((float_of_int (Clock.now_ns ()) /. 1e3) -. us) < 1e6)

(* --- Prof: GC/alloc probe --------------------------------------------------- *)

let with_prof f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Prof.enable ();
  let sink = Trace.memory () in
  Trace.set_sink sink;
  Fun.protect
    ~finally:(fun () ->
      Trace.clear ();
      Prof.disable ();
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () -> f sink)

let float_arg name e =
  List.find_map
    (fun (k, v) ->
      if k = name then match v with Trace.Float f -> Some f | _ -> None
      else None)
    e.Trace.args

let test_prof_gc_args_on_algorithm_spans () =
  (* The acceptance spans: Theorem 1's "thm1.color" and the conflict
     coloring's "dsatur" must both carry allocation deltas and
     self-time once the probe is on. *)
  let inst = random_nic_instance ~n:60 ~k:80 7 in
  let cg = Wl_core.Conflict_of.build inst in
  let events =
    with_prof (fun sink ->
        ignore (Theorem1.color inst);
        ignore (Wl_conflict.Coloring.dsatur cg);
        Trace.events sink)
  in
  List.iter
    (fun span ->
      match List.find_opt (fun e -> e.Trace.name = span) events with
      | None -> Alcotest.failf "no %s span emitted" span
      | Some e ->
        (match float_arg "gc.minor_w" e with
        | None -> Alcotest.failf "%s span without gc.minor_w" span
        | Some w ->
          if not (w > 0.) then
            Alcotest.failf "%s allocated %.0f minor words" span w);
        (match float_arg "self_us" e with
        | None -> Alcotest.failf "%s span without self_us" span
        | Some s ->
          check (span ^ " self time within duration") true
            (s >= 0. && s <= e.Trace.dur_us +. 1e-3)))
    [ "thm1.color"; "dsatur" ]

(* The per-span aggregate is the prof.<span>.* counters: two profiled
   solves count two calls, and their allocation and self time add up. *)
let test_prof_aggregate_counters () =
  let inst = random_nic_instance ~n:40 ~k:50 11 in
  let calls, minor_words, self_ns =
    with_prof (fun _sink ->
        ignore (Theorem1.color inst);
        ignore (Theorem1.color inst);
        ( counter_value "prof.thm1.color.calls",
          counter_value "prof.thm1.color.minor_words",
          counter_value "prof.thm1.color.self_ns" ))
  in
  check_int "two calls counted" 2 calls;
  check "minor words positive" true (minor_words > 0);
  check "self time positive" true (self_ns > 0)

let test_prof_self_time_excludes_children () =
  let alloc_some () = ignore (Sys.opaque_identity (Array.make 2048 0.)) in
  let events =
    with_prof (fun sink ->
        Trace.with_span "parent" (fun () ->
            Trace.with_span "child" alloc_some);
        Trace.events sink)
  in
  let parent = List.find (fun e -> e.Trace.name = "parent") events in
  let child = List.find (fun e -> e.Trace.name = "child") events in
  let p_self = Option.get (float_arg "self_us" parent) in
  let c_self = Option.get (float_arg "self_us" child) in
  check "child self ~= child dur" true
    (Float.abs (c_self -. child.Trace.dur_us) < 1e-3);
  check "parent self excludes child" true
    (p_self <= parent.Trace.dur_us -. child.Trace.dur_us +. 1e-3)

(* --- zero-overhead disabled path ------------------------------------------ *)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_disabled_counter_no_alloc () =
  Metrics.set_enabled false;
  let c = Metrics.counter "test.obs.noalloc" in
  (* Warm up so the closure and any lazy state exist before measuring. *)
  Metrics.incr c;
  let words =
    minor_words_of (fun () ->
        for _ = 1 to 100_000 do
          Metrics.incr c
        done)
  in
  (* A single boxed float from Gc.minor_words itself is fine; anything
     per-iteration would show up as >= 200k words. *)
  check "disabled incr allocates nothing" true (words < 256.)

let test_enabled_updates_no_alloc () =
  (* The enabled path is lock-free int arithmetic too: a striped
     fetch-and-add per counter update, HDR cell/total/sum adds and CAS
     min/max per observation. *)
  with_metrics (fun () ->
      let c = Metrics.counter "test.obs.noalloc.on" in
      let h = Metrics.histogram "test.obs.noalloc.hist" in
      Metrics.incr c;
      Metrics.observe h 1;
      let words =
        minor_words_of (fun () ->
            for i = 1 to 100_000 do
              Metrics.incr c;
              Metrics.observe h i
            done)
      in
      check_int "every update counted" 100_001 (counter_value "test.obs.noalloc.on");
      check "enabled incr + observe allocate nothing" true (words < 256.))

let test_disabled_obs_theorem1_deterministic_alloc () =
  (* With the null sink and metrics off, instrumentation must not change
     Theorem 1's allocation behaviour: two identical runs allocate
     identical minor words. *)
  Metrics.set_enabled false;
  Trace.clear ();
  let inst = random_nic_instance ~n:60 ~k:80 5 in
  ignore (Theorem1.color inst);
  let a = minor_words_of (fun () -> ignore (Theorem1.color inst)) in
  let b = minor_words_of (fun () -> ignore (Theorem1.color inst)) in
  check "identical allocation across runs" true (a = b)

(* --- end-to-end instrumentation ------------------------------------------- *)

let test_sweep_latency_histogram () =
  with_metrics (fun () ->
      let thm1 = Option.get (Oracle.find "thm1") in
      let summary = Fuzz.run ~seeds:10 [ thm1 ] in
      check "sweep clean" true (summary.Fuzz.total_failures = 0);
      let s = histogram_snapshot "fuzz.thm1.ns" in
      check_int "one latency sample per seed" 10 s.Hdr.count;
      check "latencies positive" true (s.Hdr.min > 0))

let test_solver_counters_and_provenance () =
  let inst = random_nic_instance ~n:24 ~k:16 3 in
  let report =
    with_metrics (fun () ->
        let report = Solver.solve inst in
        check_int "solver.solves counted" 1 (counter_value "solver.solves");
        let arm =
          "solver.arm." ^ Solver.method_name report.Solver.method_used
        in
        check_int (arm ^ " counted") 1 (counter_value arm);
        report)
  in
  let render stats =
    Format.asprintf "%a" (Solver.pp_report ~stats) report
  in
  check "default report has no provenance" false
    (contains (render false) "(from ");
  check "stats report names the bound source" true
    (contains (render true) "(from ");
  check "stats report appends counters" true
    (contains (render true) "counters:")

(* --- openmetrics ------------------------------------------------------------- *)

let test_openmetrics_render_validates () =
  with_metrics (fun () ->
      let c = Metrics.counter "om.test.solves" in
      let h = Metrics.histogram "om.test.flips" in
      let l = Metrics.histogram "om.test.ns" in
      Metrics.add c 3;
      List.iter (Metrics.observe h) [ 1; 2; 500 ];
      List.iter (Metrics.observe l) [ 100; 2000; 90_000 ];
      let doc =
        Wl_obs.Openmetrics.render
          ~gauges:[ ("om.test.sessions", 2.) ]
          ~latencies:[ ("om.test.extra.ns", Hdr.snapshot (Hdr.create ())) ]
          (Metrics.snapshot ())
      in
      (match Wl_obs.Openmetrics.validate doc with
      | Error e -> Alcotest.fail ("rendered exposition rejected: " ^ e)
      | Ok st ->
        (* counter + two histograms + gauge + standalone latency *)
        check "families" true (st.Wl_obs.Openmetrics.families >= 5);
        check "samples" true (st.Wl_obs.Openmetrics.samples > 10));
      (* Every distribution renders as a summary: one output format. *)
      check "flips is a summary" true
        (contains doc "# TYPE wl_om_test_flips summary\n");
      check "no histogram family" false (contains doc " histogram\n"))

let test_openmetrics_validator_rejects () =
  let reject doc why =
    match Wl_obs.Openmetrics.validate doc with
    | Ok _ -> Alcotest.fail ("accepted " ^ why)
    | Error _ -> ()
  in
  reject "wl_x_total 1\n# EOF\n" "a sample without a TYPE";
  reject "# TYPE wl_x counter\nwl_x_total 1\n" "a document without EOF";
  reject "# TYPE wl_x counter\nwl_x_total 1\n# EOF\ntrailing\n"
    "content after EOF";
  reject "# TYPE wl_x counter\nwl_x{quantile=\"0.5\"} 1\n# EOF\n"
    "a quantile sample on a counter";
  reject "# TYPE wl_x counter\n# TYPE wl_x counter\nwl_x_total 1\n# EOF\n"
    "a duplicate TYPE";
  match Wl_obs.Openmetrics.validate "# TYPE wl_x counter\nwl_x_total 1\n# EOF\n" with
  | Ok st -> check_int "minimal doc is one family" 1 st.Wl_obs.Openmetrics.families
  | Error e -> Alcotest.fail ("rejected a minimal valid doc: " ^ e)

(* The [tenant] label value of the first labeled row in a rendered
   exposition, unescaped (backslash, double quote and newline are the only
   escaped characters); a raw newline inside the value fails the test. *)
let tenant_label doc =
  let key = "{tenant=\"" in
  let rec find i = if String.sub doc i (String.length key) = key then i else find (i + 1) in
  let buf = Buffer.create 16 in
  let rec go i =
    match doc.[i] with
    | '"' -> Buffer.contents buf
    | '\\' ->
      Buffer.add_char buf (if doc.[i + 1] = 'n' then '\n' else doc.[i + 1]);
      go (i + 2)
    | '\n' -> Alcotest.failf "raw newline in a label value of %S" doc
    | c ->
      Buffer.add_char buf c;
      go (i + 1)
  in
  go (find 0 + String.length key)

let test_openmetrics_label_escaping () =
  (* Property: adversarial label values survive [render]: the escaped form
     never leaks a raw quote or newline — the characters that would
     corrupt the exposition line format — and unescapes back to the
     original.  Then all of them ride through one document, which still
     validates (the validator is what `wl metrics-check` runs). *)
  let module Om = Wl_obs.Openmetrics in
  let rng = Prng.create 2718 in
  let adversarial =
    [
      "";
      "plain";
      "\"";
      "\\";
      "\n";
      "\\\"";
      "\\\\\"\"\n\n";
      "a\"b\\c\nd";
      "ends with backslash \\";
      "tenant-0.region_eu";
    ]
    @ List.init 50 (fun _ ->
          String.init
            (1 + Prng.int rng 24)
            (fun _ ->
              match Prng.int rng 6 with
              | 0 -> '"'
              | 1 -> '\\'
              | 2 -> '\n'
              | _ -> Char.chr (32 + Prng.int rng 95)))
  in
  List.iter
    (fun s ->
      (* a raw quote would end the value early, and so fail to round-trip *)
      let doc = Om.render ~labeled:[ ("wld.tenant.paths", [ ([ ("tenant", s) ], 1.) ]) ] [] in
      if tenant_label doc <> s then Alcotest.failf "label value %S did not round-trip" s)
    adversarial;
  (* End to end: adversarial label values rendered as per-tenant rows
     still yield a document the wl metrics-check validator accepts. *)
  let rows = List.mapi (fun i s -> ([ ("tenant", s) ], float_of_int i)) adversarial in
  let doc = Om.render ~labeled:[ ("wld.tenant.paths", rows) ] [] in
  match Om.validate doc with
  | Ok st ->
    check "labeled family present" true (st.Om.families >= 1);
    check "one sample per adversarial row" true
      (st.Om.samples >= List.length adversarial)
  | Error e -> Alcotest.fail ("adversarial labels broke the exposition: " ^ e)

let test_openmetrics_exemplar_syntax () =
  (* A latency with a latched trace exemplar renders the OpenMetrics
     exemplar syntax on its _count sample, and the strict validator
     accepts it. *)
  let module Om = Wl_obs.Openmetrics in
  let h = Wl_obs.Hdr.create () in
  Wl_obs.Hdr.record_traced h 4200 ~trace:0xdeadbee;
  let doc =
    Om.render
      ~latencies:[ ("engine.session.add.ns", Wl_obs.Hdr.snapshot h) ]
      ~exemplars:[ ("engine.session.add.ns", Option.get (Wl_obs.Hdr.exemplar h)) ]
      []
  in
  check "exemplar trace id rendered in hex" true
    (contains doc (Printf.sprintf "trace_id=\"%s\"" (Wl_obs.Ctx.hex 0xdeadbee)));
  check "exemplar syntax present" true (contains doc " # {trace_id=\"");
  (match Om.validate doc with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("exemplar-carrying doc rejected: " ^ e));
  (* No exemplar latched -> no exemplar syntax, still valid. *)
  let bare =
    Om.render ~latencies:[ ("engine.session.add.ns", Wl_obs.Hdr.snapshot h) ] []
  in
  check "no exemplar without a latch" false (contains bare "# {")

(* --- trace context ----------------------------------------------------------- *)

let test_ctx_generator_and_wire () =
  let module Ctx = Wl_obs.Ctx in
  (* Determinism: equal seeds yield equal id streams. *)
  let g1 = Ctx.generator 5 and g2 = Ctx.generator 5 in
  let r1 = Ctx.root g1 and r2 = Ctx.root g2 in
  check "equal seeds, equal roots" true (r1 = r2);
  check "root is real" false (Ctx.is_none r1);
  check "root has no parent" true (r1.Ctx.parent_id = 0);
  let c1 = Ctx.child g1 r1 in
  check "child keeps the trace id" true (c1.Ctx.trace_id = r1.Ctx.trace_id);
  check "child gets a fresh span id" false (c1.Ctx.span_id = r1.Ctx.span_id);
  check "child records its parent" true (c1.Ctx.parent_id = r1.Ctx.span_id);
  (* child of none is a fresh root. *)
  let orphan = Ctx.child g1 Ctx.none in
  check "child of none is a root" true
    (orphan.Ctx.parent_id = 0 && not (Ctx.is_none orphan));
  check "roots differ across draws" false (orphan.Ctx.trace_id = r1.Ctx.trace_id);
  (* Wire form round-trips; parent id deliberately not carried. *)
  (match Ctx.of_string (Ctx.to_string c1) with
  | None -> Alcotest.fail "wire form does not parse back"
  | Some c ->
    check "trace survives" true (c.Ctx.trace_id = c1.Ctx.trace_id);
    check "span survives" true (c.Ctx.span_id = c1.Ctx.span_id);
    check "parent not carried" true (c.Ctx.parent_id = 0));
  (* Strictness of the parser. *)
  List.iter
    (fun s -> check ("rejects " ^ s) true (Ctx.of_string s = None))
    [ ""; ":"; "1:"; ":1"; "0:5"; "zz:1"; "1:2:3"; "-1:2"; "1:+2";
      "12345678123456781:2"; "1 :2"; "0x1:2" ];
  check "uppercase hex accepted" true (Ctx.of_string "AB:CD" <> None)

let test_ctx_ambient () =
  let module Ctx = Wl_obs.Ctx in
  Ctx.set Ctx.none;
  check "clean slate" true (Ctx.is_none (Ctx.current ()));
  check_int "no ambient trace" 0 (Ctx.current_trace ());
  let g = Ctx.generator 9 in
  let c = Ctx.root g in
  Ctx.set c;
  Fun.protect ~finally:(fun () -> Ctx.set Ctx.none) (fun () ->
      check "ambient readable" true (Ctx.current () = c);
      check_int "current_trace matches" c.Ctx.trace_id (Ctx.current_trace ()));
  check "cleared" true (Ctx.is_none (Ctx.current ()))

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "span nesting and timing" `Quick test_span_nesting;
        Alcotest.test_case "span survives raise" `Quick test_span_survives_raise;
        Alcotest.test_case "counters under map_array" `Quick
          test_counters_under_map_array;
        Alcotest.test_case "histogram snapshot" `Quick test_histogram_snapshot;
        Alcotest.test_case "histogram created on first observe" `Quick
          test_histogram_created_on_first_observe;
        Alcotest.test_case "disabled updates ignored" `Quick
          test_disabled_updates_ignored;
        Alcotest.test_case "chrome trace round-trip" `Quick test_chrome_roundtrip;
        Alcotest.test_case "chrome validator rejects malformed" `Quick
          test_chrome_rejects_malformed;
        Alcotest.test_case "disabled counter allocates nothing" `Quick
          test_disabled_counter_no_alloc;
        Alcotest.test_case "enabled updates allocate nothing" `Quick
          test_enabled_updates_no_alloc;
        Alcotest.test_case "theorem1 alloc unchanged when off" `Quick
          test_disabled_obs_theorem1_deterministic_alloc;
        Alcotest.test_case "sweep latency histogram" `Quick
          test_sweep_latency_histogram;
        Alcotest.test_case "solver counters and provenance" `Quick
          test_solver_counters_and_provenance;
        Alcotest.test_case "clock is monotonic" `Quick test_clock_monotonic;
        Alcotest.test_case "prof: GC args on algorithm spans" `Quick
          test_prof_gc_args_on_algorithm_spans;
        Alcotest.test_case "prof: aggregates and metrics counters" `Quick
          test_prof_aggregate_counters;
        Alcotest.test_case "prof: self time excludes children" `Quick
          test_prof_self_time_excludes_children;
        Alcotest.test_case "openmetrics render validates" `Quick
          test_openmetrics_render_validates;
        Alcotest.test_case "openmetrics validator rejects" `Quick
          test_openmetrics_validator_rejects;
        Alcotest.test_case "openmetrics label escaping" `Quick
          test_openmetrics_label_escaping;
        Alcotest.test_case "openmetrics exemplar syntax" `Quick
          test_openmetrics_exemplar_syntax;
        Alcotest.test_case "ctx generator and wire form" `Quick
          test_ctx_generator_and_wire;
        Alcotest.test_case "ctx ambient cell" `Quick test_ctx_ambient;
      ] );
  ]
