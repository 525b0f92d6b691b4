module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Clock = Wl_obs.Clock
module Jsonx = Wl_json.Jsonx

type failure = {
  check : string;
  seed : int;
  reason : string;
  shrunk : Shrink.result option;
      (* None when the seed could not be shrunk: its generator raised, or
         the subject passed when re-checked alone. *)
  flight : string option;
      (* engine oracle only: the flight dump (a Chrome trace) of the
         shrunk reproducer's failing session.  Excluded from to_json —
         dump timings are nondeterministic and the goldens are
         byte-stable. *)
}

type check_run = {
  check : string;
  seeds_run : int;
  failures : failure list;
}

type summary = {
  runs : check_run list;
  total_seeds : int;
  total_failures : int;
}

(* Per-seed observability: a latency histogram and seed/failure counters
   per oracle, a [fuzz.<name>] span per seed and an instant event carrying
   the failing seed and reason.  One atomic load per seed while metrics
   and tracing are off. *)
let instrumented (oracle : Oracle.t) =
  let name = oracle.Oracle.name in
  let h_latency = Metrics.histogram ("fuzz." ^ name ^ ".ns") in
  let c_failures = Metrics.counter ("fuzz." ^ name ^ ".failures") in
  let c_seeds = Metrics.counter ("fuzz." ^ name ^ ".seeds") in
  let span_name = "fuzz." ^ name in
  fun seed ->
    if not (Metrics.enabled () || Trace.enabled ()) then Oracle.run oracle seed
    else begin
      let go () =
        Metrics.incr c_seeds;
        let t0 = Clock.now_ns () in
        let result = Oracle.run oracle seed in
        Metrics.observe h_latency (Clock.now_ns () - t0);
        (match result with
        | Some (seed, reason) ->
          Metrics.incr c_failures;
          Trace.instant
            ~args:[ ("seed", Trace.Int seed); ("reason", Trace.Str reason) ]
            (span_name ^ ".failure")
        | None -> ());
        result
      in
      if Trace.enabled () then
        Trace.with_span ~args:[ ("seed", Trace.Int seed) ] span_name go
      else go ()
    end

let h_shrink = Metrics.histogram "fuzz.shrink.attempts"

let shrink_failure ?shrink_attempts (oracle : Oracle.t) (seed, reason) =
  (* Oracle.run reported the seed whatever raised; so does this.  A
     generator that raises, or a subject that passes when re-checked
     alone ([Shrink.minimize] then raises), leaves the failure without a
     reproducer. *)
  let minimize () =
    match
      Shrink.minimize ?max_attempts:shrink_attempts ~check:oracle.Oracle.check
        (oracle.Oracle.generate seed)
    with
    | shrunk -> Some shrunk
    | exception _ -> None
  in
  let shrunk =
    if Trace.enabled () then
      Trace.with_span
        ~args:[ ("seed", Trace.Int seed) ]
        "fuzz.shrink" minimize
    else minimize ()
  in
  (* Re-check the shrunk subject sequentially so the flight side channel
     (engine oracle only) holds the dump of exactly this reproducer's
     session, not whichever parallel seed failed last. *)
  let flight =
    match shrunk with
    | None -> None
    | Some shrunk -> (
      Metrics.observe h_shrink shrunk.Shrink.attempts;
      ignore (Oracle.take_flight ());
      match oracle.Oracle.check shrunk.Shrink.subject with
      | _ -> Oracle.take_flight ()
      | exception _ -> Oracle.take_flight ())
  in
  { check = oracle.Oracle.name; seed; reason; shrunk; flight }

let run ?domains ?(seed0 = 0) ?budget_s ?shrink_attempts ~seeds oracles =
  let t0 = Clock.now_ns () in
  let over_budget () =
    match budget_s with
    | None -> false
    | Some b -> float_of_int (Clock.now_ns () - t0) /. 1e9 >= b
  in
  let run_oracle (oracle : Oracle.t) =
    let one = instrumented oracle in
    let failures = ref [] in
    let done_ = ref 0 in
    while !done_ < seeds && not (over_budget ()) do
      (* Waves only bound the budget; without one, a single pass spares a
         probe and a domain spawn per 128 seeds. *)
      let left = seeds - !done_ in
      let wave = if budget_s = None then left else min 128 left in
      let base = seed0 + !done_ in
      let results =
        Wl_util.Parallel.init ?domains wave (fun i -> one (base + i))
      in
      Array.iter
        (function
          | Some failure -> failures := failure :: !failures
          | None -> ())
        results;
      done_ := !done_ + wave
    done;
    let sorted =
      List.sort (fun (s1, _) (s2, _) -> compare (s1 : int) s2) !failures
    in
    {
      check = oracle.Oracle.name;
      seeds_run = !done_;
      failures = List.map (shrink_failure ?shrink_attempts oracle) sorted;
    }
  in
  let runs = List.map run_oracle oracles in
  {
    runs;
    total_seeds = List.fold_left (fun a r -> a + r.seeds_run) 0 runs;
    total_failures =
      List.fold_left (fun a r -> a + List.length r.failures) 0 runs;
  }

let failure_json f =
  Jsonx.Obj
    [
      ("seed", Jsonx.Int f.seed);
      ("reason", Jsonx.Str f.reason);
      ( "shrunk",
        match f.shrunk with
        | None -> Jsonx.Null
        | Some shrunk ->
          let s = shrunk.Shrink.subject in
          Jsonx.Obj
            [
              ("vertices", Jsonx.Int (Subject.n_vertices s));
              ("paths", Jsonx.Int (Subject.n_paths s));
              ("ops", Jsonx.Int (Subject.n_ops s));
              ("reason", Jsonx.Str shrunk.Shrink.reason);
              ("wl", Jsonx.Str (Subject.wl_string s));
              ( "wlops",
                match Subject.ops_string s with
                | None -> Jsonx.Null
                | Some text -> Jsonx.Str text );
            ] );
    ]

let to_json ?pretty summary =
  Jsonx.to_string ?pretty
    (Jsonx.Obj
       [
         ("format", Jsonx.Str "wl-fuzz");
         ("version", Jsonx.Int 1);
         ("seeds", Jsonx.Int summary.total_seeds);
         ("failures", Jsonx.Int summary.total_failures);
         ( "checks",
           Jsonx.Arr
             (List.map
                (fun r ->
                  Jsonx.Obj
                    [
                      ("check", Jsonx.Str r.check);
                      ("seeds", Jsonx.Int r.seeds_run);
                      ("failures", Jsonx.Arr (List.map failure_json r.failures));
                    ])
                summary.runs) );
       ])

let pp ppf summary =
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %6d seeds   %s@." r.check r.seeds_run
        (match r.failures with
        | [] -> "ok"
        | fs ->
          let f = List.hd fs in
          Printf.sprintf "%d FAILURES (first: seed %d, %s)" (List.length fs)
            f.seed f.reason);
      List.iter
        (fun f ->
          match f.shrunk with
          | None ->
            Format.fprintf ppf
              "  seed %d not shrunk: no subject, or it passed alone@." f.seed
          | Some shrunk -> (
            let s = shrunk.Shrink.subject in
            Format.fprintf ppf
              "  seed %d shrunk to %d vertices / %d paths / %d ops (%s)@."
              f.seed (Subject.n_vertices s) (Subject.n_paths s) (Subject.n_ops s)
              shrunk.Shrink.reason;
            Format.fprintf ppf "  --- reproducer ---@.%s" (Subject.wl_string s);
            (match Subject.ops_string s with
            | None -> ()
            | Some ops -> Format.fprintf ppf "  --- ops ---@.%s" ops);
            match Option.map Trace.validate_chrome f.flight with
            | None -> ()
            | Some (Ok ops) ->
              Format.fprintf ppf
                "  --- flight: %d op(s) recorded (written by --corpus) ---@."
                ops
            | Some (Error e) ->
              Format.fprintf ppf "  --- flight: invalid dump (%s) ---@." e))
        r.failures)
    summary.runs;
  Format.fprintf ppf "total: %d seeds, %d failures@." summary.total_seeds
    summary.total_failures

let write_corpus ~dir summary =
  let write_file path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    path
  in
  List.concat_map
    (fun r ->
      List.concat_map
        (fun (f : failure) ->
          match f.shrunk with
          | None -> []
          | Some shrunk ->
            let paths =
              Corpus.add ~dir ~check:f.check
                ~label:("s" ^ string_of_int f.seed)
                shrunk.Shrink.subject
            in
            match f.flight with
            | None -> paths
            | Some chrome ->
              (* The black-box tail of the failing session rides along with
                 the reproducer, as a Chrome trace that [wl trace-check]
                 accepts. *)
              let path =
                Filename.concat dir
                  (Printf.sprintf "%s.s%d.flight.trace.json" f.check f.seed)
              in
              paths @ [ write_file path chrome ])
        r.failures)
    summary.runs
