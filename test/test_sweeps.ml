(* CI-scale runs of the theorem sweeps (`wl fuzz --checks thm1,... --seeds
   30000` runs them at scale; here a few hundred each keep `dune runtest`
   snappy while still exercising the full generator/algorithm/checker
   pipeline), plus the contract of the driver that runs them,
   [Fuzz.run]. *)

open Helpers
module Oracle = Wl_check.Oracle
module Fuzz = Wl_check.Fuzz
module Subject = Wl_check.Subject
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace

let failures_of summary =
  List.concat_map (fun r -> r.Fuzz.failures) summary.Fuzz.runs

let failed_seeds summary =
  List.map (fun (f : Fuzz.failure) -> f.Fuzz.seed) (failures_of summary)

let sweep_case name =
  Alcotest.test_case name `Slow (fun () ->
      let oracle = Option.get (Oracle.find name) in
      match
        failures_of (Fuzz.run ~seeds:300 ~shrink_attempts:0 [ oracle ])
      with
      | [] -> ()
      | f :: _ as failures ->
        Alcotest.failf "%d failures; first: seed %d, %s" (List.length failures)
          f.Fuzz.seed f.Fuzz.reason)

(* A test oracle whose subject encodes its seed: a directed path on
   [seed + 1] vertices with no dipaths, so [check] can read the seed back
   and fail on a chosen set of seeds. *)
let seeded_oracle name fails =
  let generate seed =
    let g =
      Wl_digraph.Digraph.of_arcs (seed + 1) (List.init seed (fun v -> (v, v + 1)))
    in
    Subject.make (Wl_core.Instance.make (Wl_dag.Dag.of_digraph_exn g) [])
  in
  let check s = fails (Subject.n_vertices s - 1) in
  { Oracle.name; doc = "test oracle"; generate; check }

let test_failure_reporting () =
  (* A deliberately failing oracle reports every failing seed with its
     reason. *)
  let broken =
    seeded_oracle "broken" (fun seed ->
        if seed mod 2 = 0 then Some "even seed" else None)
  in
  let failures = failures_of (Fuzz.run ~seeds:10 ~shrink_attempts:0 [ broken ]) in
  check_int "five failures" 5 (List.length failures);
  check "reasons carried" true
    (List.for_all (fun (f : Fuzz.failure) -> f.Fuzz.reason = "even seed") failures);
  (* Exceptions are captured as failures, not crashes. *)
  let raising = seeded_oracle "raising" (fun _ -> failwith "boom") in
  check_int "exceptions counted" 3
    (List.length
       (failures_of (Fuzz.run ~seeds:3 ~shrink_attempts:0 [ raising ])))

let test_unshrinkable_failures () =
  (* A seed that cannot be re-generated, or that passes when re-checked
     alone, is still a failure: it is reported without a reproducer
     instead of killing the run. *)
  let base = seeded_oracle "genboom" (fun _ -> None) in
  let genboom =
    {
      base with
      Oracle.generate =
        (fun seed ->
          if seed = 3 then failwith "generator boom" else base.Oracle.generate seed);
    }
  in
  let summary = Fuzz.run ~seeds:5 [ genboom ] in
  (match failures_of summary with
  | [ f ] ->
    check_int "failing seed" 3 f.Fuzz.seed;
    Alcotest.(check string)
      "exception text as reason" "Failure(\"generator boom\")" f.Fuzz.reason;
    check "no reproducer" true (Option.is_none f.Fuzz.shrunk)
  | fs -> Alcotest.failf "%d failures, expected one" (List.length fs));
  check "json shrunk null" true
    (contains (Fuzz.to_json summary) "\"shrunk\": null");
  check "nothing written to the corpus" true
    (Fuzz.write_corpus ~dir:"no-such-corpus-dir" summary = []);
  (* A check that fails only on its first call: the sequential re-check
     before shrinking passes. *)
  let first = Atomic.make true in
  let flaky =
    seeded_oracle "flaky" (fun _ ->
        if Atomic.exchange first false then Some "first call" else None)
  in
  match failures_of (Fuzz.run ~domains:1 ~seeds:1 [ flaky ]) with
  | [ f ] ->
    check "flaky reason kept" true (f.Fuzz.reason = "first call");
    check "flaky not shrunk" true (Option.is_none f.Fuzz.shrunk)
  | fs -> Alcotest.failf "%d flaky failures, expected one" (List.length fs)

let test_failure_ordering () =
  (* Failures come back in ascending seed order whatever the domain
     count — "first failure" is part of the contract. *)
  let broken =
    seeded_oracle "broken" (fun seed ->
        if seed mod 7 < 3 then Some "fail" else None)
  in
  let expected =
    List.filter (fun s -> s mod 7 < 3) (List.init 100 Fun.id)
  in
  List.iter
    (fun domains ->
      check
        (Printf.sprintf "sorted seeds (%d domains)" domains)
        true
        (failed_seeds (Fuzz.run ~domains ~seeds:100 ~shrink_attempts:0 [ broken ])
        = expected))
    [ 1; 2; 4 ]

let test_instrumentation () =
  (* [Fuzz.run] must account every seed and failure: the counters match
     the returned failure list exactly, the latency histogram sees every
     seed, and each failure emits one [fuzz.<name>.failure] instant
     carrying its seed. *)
  let broken =
    seeded_oracle "testcase" (fun seed ->
        if seed mod 3 = 0 then Some "mod3" else None)
  in
  Metrics.reset ();
  Metrics.set_enabled true;
  let sink = Trace.memory () in
  Trace.set_sink sink;
  let summary = Fuzz.run ~domains:2 ~seeds:10 ~shrink_attempts:0 [ broken ] in
  Trace.clear ();
  Metrics.set_enabled false;
  let failures = failed_seeds summary in
  let counter name = counter_value ("fuzz.testcase." ^ name) in
  check_int "failures returned" 4 (List.length failures);
  check_int "seeds counter" 10 (counter "seeds");
  check_int "failures counter" (List.length failures) (counter "failures");
  check_int "latency observations" 10 (histogram_snapshot "fuzz.testcase.ns").Wl_obs.Hdr.count;
  let events = Trace.events sink in
  let instant_seeds =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.instant && e.Trace.name = "fuzz.testcase.failure" then
          match List.assoc_opt "seed" e.Trace.args with
          | Some (Trace.Int s) -> Some s
          | _ -> None
        else None)
      events
    |> List.sort compare
  in
  check "one instant per failure, seeds matching" true
    (instant_seeds = failures);
  let spans =
    List.filter
      (fun (e : Trace.event) ->
        (not e.Trace.instant) && e.Trace.name = "fuzz.testcase")
      events
  in
  check_int "one span per seed" 10 (List.length spans);
  Metrics.reset ()

let suite =
  [
    ( "sweeps",
      [
        Alcotest.test_case "failure reporting" `Quick test_failure_reporting;
        Alcotest.test_case "unshrinkable failures reported" `Quick
          test_unshrinkable_failures;
        Alcotest.test_case "failure ordering across domains" `Quick
          test_failure_ordering;
        Alcotest.test_case "instrumentation accounting" `Quick
          test_instrumentation;
      ]
      @ List.map sweep_case
          [ "thm1"; "thm2"; "thm6"; "thm6multi"; "casec"; "grooming" ] );
  ]
