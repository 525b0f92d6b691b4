(* CI-scale runs of the theorem sweeps (bin/stress runs them at 30k+
   seeds; here a few hundred each keep `dune runtest` snappy while still
   exercising the full generator/algorithm/checker pipeline), plus the
   contract of the driver that runs them, [Fuzz.run]. *)

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

let sweep_case (oracle : Oracle.t) =
  Alcotest.test_case oracle.Oracle.name `Slow (fun () ->
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
  let counter name =
    Option.value ~default:0 (Metrics.find_counter ("fuzz.testcase." ^ name))
  in
  check_int "failures returned" 4 (List.length failures);
  check_int "seeds counter" 10 (counter "seeds");
  check_int "failures counter" (List.length failures) (counter "failures");
  (match Metrics.find_latency "fuzz.testcase.ns" with
  | None -> Alcotest.fail "latency summary missing"
  | Some h -> check_int "latency observations" 10 h.Wl_obs.Hdr.count);
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
        Alcotest.test_case "failure ordering across domains" `Quick
          test_failure_ordering;
        Alcotest.test_case "instrumentation accounting" `Quick
          test_instrumentation;
      ]
      @ List.map sweep_case Oracle.sweeps );
  ]
