(* The fuzzing subsystem: oracle soundness over CI-scale seed ranges,
   shrinker determinism and minimality (via the deliberately failing
   selftest oracle), the engine equivalence property in shrinkable form,
   and replay of every checked-in corpus reproducer. *)

open Helpers
module Oracle = Wl_check.Oracle
module Shrink = Wl_check.Shrink
module Subject = Wl_check.Subject
module Corpus = Wl_check.Corpus
module Fuzz = Wl_check.Fuzz

(* Every oracle (native and lifted sweeps) passes a CI-scale seed range;
   bin/wl fuzz runs the same thing at larger scale. *)
let oracle name = Option.get (Oracle.find name)

(* Same rendered instance and same op list (labels ignored). *)
let same_subject a b = Subject.wl_string a = Subject.wl_string b && a.Subject.ops = b.Subject.ops

let oracle_case (o : Oracle.t) =
  Alcotest.test_case o.Oracle.name `Slow (fun () ->
      for seed = 0 to 79 do
        match Oracle.run o seed with
        | None -> ()
        | Some (seed, reason) -> Alcotest.failf "seed %d: %s" seed reason
      done)

let test_fuzz_driver () =
  let summary = Fuzz.run ~seeds:25 [ oracle "serial"; oracle "thm1_dsatur" ] in
  check_int "runs" 2 (List.length summary.Fuzz.runs);
  check_int "total seeds" 50 summary.Fuzz.total_seeds;
  check_int "no failures" 0 summary.Fuzz.total_failures;
  List.iter
    (fun r -> check_int (r.Fuzz.check ^ " seeds_run") 25 r.Fuzz.seeds_run)
    summary.Fuzz.runs

let test_fuzz_catches_and_shrinks () =
  (* The selftest oracle's false claim is caught on every seed and each
     failure arrives minimized: load 2 needs exactly two paths sharing one
     arc, and nothing smaller fails. *)
  let summary = Fuzz.run ~seeds:3 [ Oracle.selftest ] in
  check_int "all seeds fail" 3 summary.Fuzz.total_failures;
  List.iter
    (fun (f : Fuzz.failure) ->
      let s = (Option.get f.Fuzz.shrunk).Shrink.subject in
      check_int "minimal vertices" 2 (Subject.n_vertices s);
      check_int "minimal paths" 2 (Subject.n_paths s);
      check "still fails" true (Oracle.selftest.Oracle.check s <> None))
    (List.concat_map (fun r -> r.Fuzz.failures) summary.Fuzz.runs)

let test_shrink_deterministic () =
  let o = Oracle.selftest in
  let subject = o.Oracle.generate 0 in
  let r1 = Shrink.minimize ~check:o.Oracle.check subject in
  let r2 = Shrink.minimize ~check:o.Oracle.check subject in
  check "same subject" true (same_subject r1.Shrink.subject r2.Shrink.subject);
  check "same reason" true (r1.Shrink.reason = r2.Shrink.reason);
  check_int "same attempts" r1.Shrink.attempts r2.Shrink.attempts

let test_shrink_rejects_passing () =
  let subject = (oracle "serial").Oracle.generate 0 in
  match Shrink.minimize ~check:(fun _ -> None) subject with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "minimize accepted a passing subject"

let test_subject_parts_roundtrip () =
  (* to_parts/of_parts is the slice the shrinker edits; it must be the
     identity on well-formed subjects, ops included. *)
  let subject = (oracle "engine").Oracle.generate 3 in
  check "subject has ops" true (Subject.n_ops subject > 0);
  match Subject.of_parts (Subject.to_parts subject) with
  | None -> Alcotest.fail "of_parts rejected to_parts output"
  | Some s -> check "identity" true (same_subject subject s)

let test_subject_file_roundtrip () =
  let subject = (oracle "engine").Oracle.generate 5 in
  let prefix = Filename.temp_file "wl_check" "" in
  let written = Subject.write ~prefix subject in
  check_int "wl + wlops written" 2 (List.length written);
  let read =
    match Subject.read ~wl:(prefix ^ ".wl") with
    | Ok s -> s
    | Error e -> Alcotest.failf "read: %s" (Wl_core.Error.to_string e)
  in
  List.iter Sys.remove written;
  Sys.remove prefix;
  check "file roundtrip" true (same_subject subject read)

(* The PR-3 engine equivalence property, ported onto the oracle API:
   qcheck contributes only the seed; generation, the op replay, and the
   op-by-op comparison against fresh solves all live in Oracle.engine —
   so any failure found here is immediately shrinkable by Shrink.minimize
   (or `wl fuzz --checks engine`). *)
let engine_prop =
  qtest ~count:60 "engine oracle: warm sessions match fresh solves" seed_gen
    (fun seed ->
      match Oracle.run (oracle "engine") seed with
      | None -> true
      | Some (seed, reason) ->
        QCheck2.Test.fail_reportf "seed %d: %s" seed reason)

(* One replay test per checked-in reproducer.  Corpus entries are
   formerly-failing minimized inputs: the bug they exposed is fixed, so
   the oracle must pass; a failure here is a regression. *)
let corpus_cases =
  match Corpus.load "corpus" with
  | Error msg ->
    [
      Alcotest.test_case "load" `Quick (fun () ->
          Alcotest.failf "corpus: %s" msg);
    ]
  | Ok entries ->
    Alcotest.test_case "non-empty" `Quick (fun () ->
        check "entries present" true (entries <> []))
    :: List.map
         (fun (e : Corpus.entry) ->
           Alcotest.test_case
             ("replay " ^ Filename.basename e.Corpus.wl_file)
             `Quick
             (fun () ->
               match Corpus.replay e with
               | None -> ()
               | Some reason -> Alcotest.failf "regression: %s" reason))
         entries

let suite =
  [
    ( "check",
      [
        Alcotest.test_case "fuzz driver totals" `Quick test_fuzz_driver;
        Alcotest.test_case "selftest caught and shrunk to minimum" `Quick
          test_fuzz_catches_and_shrinks;
        Alcotest.test_case "shrinking is deterministic" `Quick
          test_shrink_deterministic;
        Alcotest.test_case "minimize rejects passing subjects" `Quick
          test_shrink_rejects_passing;
        Alcotest.test_case "subject parts roundtrip" `Quick
          test_subject_parts_roundtrip;
        Alcotest.test_case "subject file roundtrip" `Quick
          test_subject_file_roundtrip;
        engine_prop;
      ]
      @ List.map oracle_case Oracle.all );
    ("check.corpus", corpus_cases);
  ]
