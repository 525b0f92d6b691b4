(* Bench trajectory store: summary statistics, the regression gate on
   synthetic histories, JSONL round-trips, the /2 legacy reader, and the
   dashboard's well-formedness check. *)

open Helpers
module Store = Wl_obs.Store
module Report = Wl_bench.Report
module Jsonx = Wl_json.Jsonx

let check_float = Alcotest.(check (float 1e-9))

(* --- summary statistics ---------------------------------------------------- *)

let test_summarize () =
  let s = Store.summarize [ 3.; 1.; 2. ] in
  check_float "median of 3" 2. s.Store.median_ns;
  check_float "mad of 3" 1. s.Store.mad_ns;
  check_int "runs" 3 s.Store.runs;
  (* An outlier moves neither the median nor the MAD much. *)
  let s = Store.summarize [ 1.; 2.; 3.; 4.; 100. ] in
  check_float "median robust to outlier" 3. s.Store.median_ns;
  check_float "mad robust to outlier" 1. s.Store.mad_ns;
  check "cv positive on spread" true (s.Store.cv > 0.);
  let s = Store.summarize [ 5. ] in
  check_float "single-sample median" 5. s.Store.median_ns;
  check_float "single-sample mad" 0. s.Store.mad_ns;
  match Store.summarize [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "summarize [] should raise"

(* --- gate on synthetic trajectories ---------------------------------------- *)

let point ?(mad = 0.) name median =
  {
    Store.name;
    params = [];
    extras = [];
    sample = { Store.median_ns = median; mad_ns = mad; cv = 0.; runs = 7 };
    baseline_ns = None;
    counters = [];
  }

let entry ?(rev = "cafe00") pts =
  { (Store.make ~domains:1 pts) with Store.rev; timestamp = "2026-08-06T00:00:00Z" }

let verdict_of cmp name =
  match
    List.find_opt (fun v -> v.Store.bench = name) cmp.Store.verdicts
  with
  | Some v -> v.Store.verdict
  | None -> Alcotest.failf "no verdict for %s" name

let test_gate_catches_drift () =
  (* Five quiet runs at ~100ns, then the current run is 2x slower: the
     gate must flag it even though each historical step was tiny. *)
  let history =
    List.map (fun m -> entry [ point ~mad:1. "x" m ]) [ 100.; 101.; 99.; 100.; 100. ]
  in
  let cmp = Store.compare ~history (entry [ point ~mad:1. "x" 200. ]) in
  check "regression flagged" true (verdict_of cmp "x" = Store.Regression);
  check_int "regressions counted" 1 cmp.Store.regressions;
  (* A 2x speedup is flagged the other way, not silently blessed. *)
  let cmp = Store.compare ~history (entry [ point ~mad:1. "x" 50. ]) in
  check "improvement flagged" true (verdict_of cmp "x" = Store.Improvement)

let test_gate_tolerates_noise () =
  (* Noisy history: the MAD-widened tolerance must absorb swings of the
     same magnitude as the historical scatter. *)
  let history =
    List.map (fun m -> entry [ point ~mad:8. "n" m ]) [ 100.; 120.; 90.; 110.; 95. ]
  in
  let cmp = Store.compare ~history (entry [ point ~mad:8. "n" 118. ]) in
  check "within historical scatter is stable" true
    (verdict_of cmp "n" = Store.Stable);
  check_int "no regressions" 0 cmp.Store.regressions

let test_gate_new_and_single () =
  let history = [ entry [ point "old" 100. ] ] in
  let cmp =
    Store.compare ~history (entry [ point "old" 103.; point "fresh" 50. ])
  in
  check "unknown bench is New_bench" true
    (verdict_of cmp "fresh" = Store.New_bench);
  check "known bench still judged" true (verdict_of cmp "old" = Store.Stable);
  (* Single-point history: MAD of one median is 0, so the percentage
     floor alone decides — no crash, still catches a big jump. *)
  let cmp = Store.compare ~history (entry [ point "old" 150. ]) in
  check "single-point baseline still gates" true
    (verdict_of cmp "old" = Store.Regression);
  (* Empty history: everything is new. *)
  let cmp = Store.compare ~history:[] (entry [ point "old" 100. ]) in
  check "empty history -> all new" true
    (verdict_of cmp "old" = Store.New_bench)

let test_gate_window () =
  (* Ancient slowness outside the window must not excuse a current
     regression against the recent baseline. *)
  let history =
    List.map (fun m -> entry [ point "w" m ])
      [ 500.; 500.; 100.; 100.; 100.; 100.; 100. ]
  in
  let cmp = Store.compare ~window:5 ~history (entry [ point "w" 200. ]) in
  check "window drops ancient entries" true
    (verdict_of cmp "w" = Store.Regression)

(* --- JSONL round-trip ------------------------------------------------------ *)

let rich_entry () =
  let e =
    Store.make ~domains:4 ~note:"unit test"
      [
        {
          Store.name = "thm1/color/n=120";
          params = [ ("n", 120); ("k", 90) ];
          extras = [ ("warm_hit_rate", 0.5) ];
          sample =
            { Store.median_ns = 1234.5; mad_ns = 10.25; cv = 0.031; runs = 7 };
          baseline_ns = Some 2000.;
          counters =
            [
              ("solver.kempe_cascades", Jsonx.Int 17);
              ( "parallel.map_wall_ns",
                Jsonx.Obj
                  [
                    ("count", Jsonx.Int 3);
                    ("sum", Jsonx.Int 900);
                    ("min", Jsonx.Int 100);
                    ("max", Jsonx.Int 500);
                  ] );
            ];
        };
      ]
  in
  {
    e with
    Store.rev = "abc1234";
    timestamp = "2026-08-06T12:00:00Z";
    extra = [ ("sweep_trajectory", Jsonx.Arr [ Jsonx.Int 1; Jsonx.Int 2 ]) ];
  }

let check_entry_eq msg (a : Store.entry) (b : Store.entry) =
  check (msg ^ ": rev") true (a.Store.rev = b.Store.rev);
  check (msg ^ ": timestamp") true (a.Store.timestamp = b.Store.timestamp);
  check_int (msg ^ ": domains") a.Store.domains b.Store.domains;
  check (msg ^ ": note") true (a.Store.note = b.Store.note);
  check (msg ^ ": extra") true (a.Store.extra = b.Store.extra);
  check_int (msg ^ ": points") (List.length a.Store.points)
    (List.length b.Store.points);
  List.iter2
    (fun (p : Store.point) (q : Store.point) ->
      check (msg ^ ": point name") true (p.Store.name = q.Store.name);
      check (msg ^ ": params") true (p.Store.params = q.Store.params);
      check (msg ^ ": extras") true (p.Store.extras = q.Store.extras);
      check (msg ^ ": sample") true (p.Store.sample = q.Store.sample);
      check (msg ^ ": baseline") true (p.Store.baseline_ns = q.Store.baseline_ns);
      check (msg ^ ": counters") true (p.Store.counters = q.Store.counters))
    a.Store.points b.Store.points

let with_temp f =
  let path = Filename.temp_file "wl_store_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One entry through [append] and [load]. *)
let round_trip e =
  with_temp (fun path ->
      Store.append path e;
      match Store.load path with
      | Ok [ e' ] -> (read_file path, e')
      | Ok l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)
      | Error m -> Alcotest.failf "round-trip failed: %s" m)

let test_json_round_trip () =
  let e = rich_entry () in
  let s1, e' = round_trip e in
  check_entry_eq "to_json/of_json" e e';
  (* Byte-stable fixpoint: serializing the reparsed entry reproduces
     the exact bytes — the golden property the trajectory file relies
     on for clean diffs. *)
  let s2, _ = round_trip e' in
  Alcotest.(check string) "golden fixpoint" s1 s2

let test_jsonl_append_load () =
  let path = Filename.temp_file "wl_store_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let e1 = rich_entry () in
      let e2 = entry ~rev:"beef01" [ point "x" 42. ] in
      Store.append path e1;
      Store.append path e2;
      match Store.load path with
      | Error m -> Alcotest.failf "load failed: %s" m
      | Ok [ r1; r2 ] ->
        check_entry_eq "jsonl first" e1 r1;
        check_entry_eq "jsonl second" e2 r2
      | Ok l -> Alcotest.failf "expected 2 entries, got %d" (List.length l))

let test_load_missing_and_garbage () =
  (match Store.load "/nonexistent/wl_trajectory.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file should be Error");
  let path = Filename.temp_file "wl_store_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"schema\":\"wavelength-bench-core/3\"}\nnot json\n";
      close_out oc;
      match Store.load path with
      | Error m ->
        check "garbage line located" true
          (String.length m > 0
          && String.sub m 0 (min 5 (String.length m)) = "line ")
      | Ok _ -> Alcotest.fail "garbage line should be Error")

(* --- /2 legacy reader ------------------------------------------------------ *)

let legacy_v2 =
  {|{
  "schema": "wavelength-bench-core/2",
  "command": "bench/main.exe -- perf --json",
  "benches": [
    {
      "name": "thm1/color/n=400",
      "n": 400,
      "ns_per_op": 9000.0,
      "baseline_ns_per_op": 15000.0,
      "speedup": 1.66,
      "warm_hit_rate": 0.75,
      "counters": { "solver.kempe_cascades": 3 }
    }
  ]
}|}

let test_legacy_v2_reader () =
  with_temp (fun path ->
    Out_channel.with_open_bin path (fun oc -> output_string oc legacy_v2);
    match Store.load path with
    | Error m -> Alcotest.failf "legacy reader: %s" m
    | Ok [ e ] ->
      (match e.Store.points with
      | [ p ] ->
        check "legacy name" true (p.Store.name = "thm1/color/n=400");
        check_float "ns_per_op becomes median" 9000. p.Store.sample.Store.median_ns;
        check_float "legacy mad is 0" 0. p.Store.sample.Store.mad_ns;
        check_int "legacy runs is 1" 1 p.Store.sample.Store.runs;
        check "baseline carried" true (p.Store.baseline_ns = Some 15000.);
        check "int param lifted" true (List.mem_assoc "n" p.Store.params);
        check "float extra lifted" true
          (List.mem_assoc "warm_hit_rate" p.Store.extras);
        check "speedup dropped (derivable)" true
          (not (List.mem_assoc "speedup" p.Store.extras));
        check "counters kept" true
          (p.Store.counters = [ ("solver.kempe_cascades", Jsonx.Int 3) ])
      | l -> Alcotest.failf "expected 1 legacy point, got %d" (List.length l));
      check "command preserved in extra" true
        (List.mem_assoc "command" e.Store.extra)
    | Ok l -> Alcotest.failf "expected 1 legacy entry, got %d" (List.length l))

let test_terminal_report_renders () =
  let history =
    [
      entry ~rev:"aaa111" [ point ~mad:2. "x" 100. ];
      entry ~rev:"bbb222" [ point ~mad:2. "x" 101. ];
      entry ~rev:"ccc333" [ point ~mad:2. "x" 250. ];
    ]
  in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Report.pp_terminal fmt history;
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  check "terminal report mentions bench" true
    (String.length out > 0
    &&
    let rec contains i =
      i + 1 <= String.length out
      && (String.sub out i 1 = "x" || contains (i + 1))
    in
    contains 0)

let suite =
  [
    ( "store",
      [
        Alcotest.test_case "summarize median/MAD/CV" `Quick test_summarize;
        Alcotest.test_case "gate catches drift both ways" `Quick
          test_gate_catches_drift;
        Alcotest.test_case "gate tolerates historical noise" `Quick
          test_gate_tolerates_noise;
        Alcotest.test_case "gate: new benches and thin history" `Quick
          test_gate_new_and_single;
        Alcotest.test_case "gate respects the window" `Quick test_gate_window;
        Alcotest.test_case "to_json/of_json round-trip + golden fixpoint"
          `Quick test_json_round_trip;
        Alcotest.test_case "JSONL append/load round-trip" `Quick
          test_jsonl_append_load;
        Alcotest.test_case "load: missing file and garbage lines" `Quick
          test_load_missing_and_garbage;
        Alcotest.test_case "/2 legacy reader" `Quick test_legacy_v2_reader;
        Alcotest.test_case "terminal report renders" `Quick
          test_terminal_report_renders;
      ] );
  ]
