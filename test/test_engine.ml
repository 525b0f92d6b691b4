(* Tests for the incremental engine: deterministic exercises of every warm
   path (free color, fresh color, Kempe repair, shrink, fallback), the
   classification flip, batched submission — and the
   central equivalence property: after ANY op sequence the session reports
   exactly what a fresh solve of the materialized instance reports. *)

open Helpers
open Wl_core
open Wl_engine
module Digraph = Wl_digraph.Digraph
module Dipath = Wl_digraph.Dipath
module Dag = Wl_dag.Dag
module Prng = Wl_util.Prng

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

let audit_ok s =
  match Engine.audit s with
  | Ok () -> true
  | Error msg -> Alcotest.failf "audit: %s" msg

(* The heart of the acceptance criteria: engine state vs a fresh solve of
   the final instance — valid assignment, same wavelength count, same
   optimality class. *)
let equivalent s =
  let r = Engine.report s in
  let inst = Engine.instance s in
  let fresh = Solver.solve inst in
  Assignment.is_valid inst r.Solver.assignment
  && r.Solver.n_wavelengths = fresh.Solver.n_wavelengths
  && r.Solver.optimal = fresh.Solver.optimal
  && audit_ok s

let instance_of_arcs n arcs paths =
  let g = Digraph.of_arcs n arcs in
  let dag = Dag.of_digraph_exn g in
  Instance.make dag (List.map (fun vs -> Dipath.make g vs) paths)

(* Warm mode, observed from outside: a report that runs no full solve.
   Reporting a dirty session re-solves it, so the probe itself leaves the
   session solved. *)
let is_warm s =
  let before = (Engine.stats s).Engine.full_solves in
  ignore (Engine.report s);
  (Engine.stats s).Engine.full_solves = before

let classification s = Wl_dag.Classify.classify (Instance.dag (Engine.instance s))

(* Warm the session: the first query after [create] runs the one cold
   solve, after which a no-internal-cycle session is in warm mode. *)
let warmed ?repair_budget inst =
  let s = Engine.create ?repair_budget inst in
  ignore (Engine.report s);
  s

(* --- deterministic warm paths ---------------------------------------------- *)

let base_arcs = [ (0, 1); (1, 2); (2, 3); (4, 5) ]

let test_warm_hit () =
  let inst = instance_of_arcs 6 base_arcs [ [ 4; 5 ]; [ 4; 5 ]; [ 4; 5 ] ] in
  let s = warmed inst in
  check "warm after first solve" true (is_warm s);
  check_int "pi" 3 (Engine.pi s);
  let _ = ok_exn "add" (Engine.add_path s [ 0; 1 ]) in
  let st = Engine.stats s in
  check_int "warm hit" 1 st.Engine.warm_hits;
  check_int "one solve only" 1 st.Engine.full_solves;
  check "still warm" true (is_warm s);
  check "equivalent" true (equivalent s);
  (* the report was produced warm, without a second solve *)
  check_int "still one solve" 1 (Engine.stats s).Engine.full_solves

let test_fresh_color () =
  let inst = instance_of_arcs 6 base_arcs [ [ 0; 1 ]; [ 0; 1 ] ] in
  let s = warmed inst in
  check_int "pi" 2 (Engine.pi s);
  let _ = ok_exn "add" (Engine.add_path s [ 0; 1 ]) in
  let st = Engine.stats s in
  check_int "fresh color" 1 st.Engine.fresh_colors;
  check_int "pi grew" 3 (Engine.pi s);
  check_int "wavelengths" 3 (Engine.report s).Solver.n_wavelengths;
  check "equivalent" true (equivalent s)

(* Sculpt a state where the new path sees all palette colors on its arcs
   while the load does not grow: exactly the Kempe-repair case, resolved by
   one single-path flip. *)
let repair_session ?repair_budget () =
  let inst = instance_of_arcs 6 base_arcs [ [ 4; 5 ]; [ 4; 5 ]; [ 4; 5 ] ] in
  let s = warmed ?repair_budget inst in
  let x1 = ok_exn "x1" (Engine.add_path s [ 0; 1 ]) in
  let x2 = ok_exn "x2" (Engine.add_path s [ 0; 1 ]) in
  ignore x1;
  ignore x2;
  let y1 = ok_exn "y1" (Engine.add_path s [ 2; 3 ]) in
  let y2 = ok_exn "y2" (Engine.add_path s [ 2; 3 ]) in
  let _y3 = ok_exn "y3" (Engine.add_path s [ 2; 3 ]) in
  ok_exn "rm y1" (Engine.remove_path s y1);
  ok_exn "rm y2" (Engine.remove_path s y2);
  s

let test_kempe_repair () =
  let s = repair_session () in
  check "warm before repair" true (is_warm s);
  let before = Engine.stats s in
  let _ = ok_exn "add long" (Engine.add_path s [ 0; 1; 2; 3 ]) in
  let st = Engine.stats s in
  check_int "one repair" (before.Engine.repairs + 1) st.Engine.repairs;
  check_int "single flip" 1 (st.Engine.repair_flips - before.Engine.repair_flips);
  check_int "no fallback" 0 st.Engine.fallbacks;
  check "still warm" true (is_warm s);
  check_int "still optimal at 3" 3 (Engine.report s).Solver.n_wavelengths;
  check "equivalent" true (equivalent s)

let test_budget_exhaustion_falls_back () =
  let s = repair_session ~repair_budget:0 () in
  let _ = ok_exn "add long" (Engine.add_path s [ 0; 1; 2; 3 ]) in
  let st = Engine.stats s in
  check_int "fallback" 1 st.Engine.fallbacks;
  check "dirty now" false (is_warm s);
  (* the report transparently re-solves and is still exact *)
  check "equivalent" true (equivalent s);
  check_int "second solve" 2 (Engine.stats s).Engine.full_solves

let test_warm_remove_and_shrink () =
  (* Build colors through the engine so they are known: A,B on (0,1) wear
     0,1; X on (2,3) wears 0.  Removing A drops pi to 1 while both classes
     stay inhabited — only the greedy shrink can restore palette = pi. *)
  let g = Digraph.of_arcs 4 [ (0, 1); (2, 3) ] in
  let s = Engine.create (Instance.make (Dag.of_digraph_exn g) []) in
  ignore (Engine.report s);
  let a = ok_exn "a" (Engine.add_path s [ 0; 1 ]) in
  let _b = ok_exn "b" (Engine.add_path s [ 0; 1 ]) in
  let _x = ok_exn "x" (Engine.add_path s [ 2; 3 ]) in
  check_int "pi" 2 (Engine.pi s);
  ok_exn "rm a" (Engine.remove_path s a);
  let st = Engine.stats s in
  check_int "shrink" 1 st.Engine.shrink_recolors;
  check "still warm" true (is_warm s);
  check_int "pi down" 1 (Engine.pi s);
  check_int "wavelengths down" 1 (Engine.report s).Solver.n_wavelengths;
  check "equivalent" true (equivalent s)

let test_remove_empties_class () =
  let inst = instance_of_arcs 6 base_arcs [ [ 0; 1 ]; [ 0; 1 ]; [ 0; 1 ] ] in
  let s = warmed inst in
  ok_exn "rm 2" (Engine.remove_path s 2);
  check "warm" true (is_warm s);
  check_int "wavelengths" 2 (Engine.report s).Solver.n_wavelengths;
  check "equivalent" true (equivalent s);
  ok_exn "rm 1" (Engine.remove_path s 1);
  ok_exn "rm 0" (Engine.remove_path s 0);
  check_int "empty" 0 (Engine.n_live_paths s);
  check_int "zero wavelengths" 0 (Engine.report s).Solver.n_wavelengths;
  check "equivalent" true (equivalent s)

(* --- op rejection ----------------------------------------------------------- *)

let test_rejections () =
  let inst = instance_of_arcs 6 base_arcs [ [ 0; 1 ] ] in
  let s = warmed inst in
  (match Engine.add_path s [ 0; 3 ] with
  | Error (Error.Invalid_path _) -> ()
  | _ -> Alcotest.fail "bad path accepted");
  (match Engine.remove_path s 99 with
  | Error (Error.Bad_index _) -> ()
  | _ -> Alcotest.fail "bad handle accepted");
  ok_exn "rm 0" (Engine.remove_path s 0);
  (match Engine.remove_path s 0 with
  | Error (Error.Invalid_op _) -> ()
  | _ -> Alcotest.fail "double remove accepted");
  (match Engine.add_arc s 0 0 with
  | Error (Error.Invalid_op _) -> ()
  | _ -> Alcotest.fail "self-loop accepted");
  (match Engine.add_arc s 0 1 with
  | Error (Error.Invalid_op _) -> ()
  | _ -> Alcotest.fail "duplicate arc accepted");
  (match Engine.add_arc s 3 0 with
  | Error (Error.Cyclic _) -> ()
  | _ -> Alcotest.fail "directed cycle accepted");
  (match Engine.add_arc s 0 42 with
  | Error (Error.Bad_index _) -> ()
  | _ -> Alcotest.fail "bad vertex accepted");
  (* rejected ops left no trace *)
  check_int "rejected count" 7 (Engine.stats s).Engine.rejected;
  check "equivalent" true (equivalent s)

(* --- add_arc and the classification flip ------------------------------------ *)

(* The fed diamond: no internal cycle until (3, 5) gives the sink of the
   diamond a successor, at which point every diamond vertex is internal. *)
let fed_diamond_arcs = [ (0, 1); (0, 2); (1, 3); (2, 3); (4, 0) ]

let test_classification_flip_forces_resolve () =
  let inst = instance_of_arcs 6 fed_diamond_arcs [ [ 0; 1; 3 ]; [ 0; 2; 3 ] ] in
  let s = warmed inst in
  check "warm" true (is_warm s);
  check_int "no internal cycle" 0
    (classification s).Wl_dag.Classify.n_internal_cycles;
  let solves_before = (Engine.stats s).Engine.full_solves in
  let _arc = ok_exn "add arc" (Engine.add_arc s 3 5) in
  check "flip ends warm mode" false (is_warm s);
  check_int "internal cycle seen" 1
    (classification s).Wl_dag.Classify.n_internal_cycles;
  (* the next query must be a genuine re-solve *)
  check "equivalent" true (equivalent s);
  check_int "forced full solve" (solves_before + 1)
    (Engine.stats s).Engine.full_solves;
  (* and the session can keep mutating afterwards, staying exact *)
  let _ = ok_exn "add" (Engine.add_path s [ 3; 5 ]) in
  check "equivalent after more ops" true (equivalent s)

let test_full_solves_reuse_classification () =
  (* A full solve hands the session's classification to the solver instead
     of recomputing it; the report must still be a fresh solve's, field for
     field, on both sides of the arc that creates an internal cycle — with
     3 paths (exact coloring after the arc) and with 30 (DSATUR). *)
  List.iter
    (fun copies ->
      let family = [ [ 0; 1; 3 ]; [ 0; 2; 3 ]; [ 4; 0; 1 ] ] in
      let paths = List.concat (List.init copies (fun _ -> family)) in
      let s = Engine.create (instance_of_arcs 6 fed_diamond_arcs paths) in
      let same what =
        check
          (Printf.sprintf "%d paths, %s: report = fresh solve" (3 * copies) what)
          true
          (Engine.report s = Solver.solve (Engine.instance s))
      in
      same "before the arc";
      ignore (ok_exn "add arc" (Engine.add_arc s 3 5));
      check_int "internal cycle" 1 (classification s).Wl_dag.Classify.n_internal_cycles;
      same "after the arc";
      ignore (ok_exn "add" (Engine.add_path s [ 2; 3; 5 ]));
      same "after a path over it")
    [ 1; 10 ]

let test_add_arc_keeps_warm_when_still_nic () =
  let inst = instance_of_arcs 6 base_arcs [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ] in
  let s = warmed inst in
  let _ = ok_exn "arc" (Engine.add_arc s 0 4) in
  check "still warm" true (is_warm s);
  check "equivalent" true (equivalent s);
  (* new arc is usable by later paths *)
  let _ = ok_exn "path over new arc" (Engine.add_path s [ 0; 4; 5 ]) in
  check "equivalent 2" true (equivalent s)

(* --- the frozen DAG: one graph copy per add_arc, not per full solve ---------- *)

(* The fed diamond with its sink extended: 0-1-3-2-0 is an internal
   cycle, so the session never goes warm and every query after a
   mutation is a full solve over the materialized instance. *)
let cyclic_arcs = fed_diamond_arcs @ [ (3, 5) ]
let cyclic_session () =
  Engine.create (instance_of_arcs 6 cyclic_arcs [ [ 0; 1; 3 ]; [ 0; 2; 3 ]; [ 4; 0; 1 ] ])

let test_instance_sees_arcs_added_before_it () =
  let s = cyclic_session () in
  let before = Engine.instance s in
  let a = ok_exn "arc" (Engine.add_arc s 4 5) in
  let after = Engine.instance s in
  check "earlier instance lacks the arc" false
    (Digraph.mem_arc (Instance.graph before) 4 5);
  check_int "earlier arc count" 6 (Digraph.n_arcs (Instance.graph before));
  check "later instance has it" true
    (Digraph.find_arc (Instance.graph after) 4 5 = Some a);
  check "later DAG is a new one" true (Instance.dag before != Instance.dag after);
  check "equivalent" true (equivalent s)

let test_dirty_reports_share_one_dag () =
  let s = cyclic_session () in
  ignore (Engine.report s);
  let dag = Instance.dag (Engine.instance s) in
  let solves = (Engine.stats s).Engine.full_solves in
  for _ = 1 to 3 do
    let pid = ok_exn "add" (Engine.add_path s [ 0; 2; 3; 5 ]) in
    ignore (Engine.report s);
    ok_exn "remove" (Engine.remove_path s pid);
    ignore (Engine.report s);
    check "same DAG" true (Instance.dag (Engine.instance s) == dag)
  done;
  check_int "every report solved" (solves + 6) (Engine.stats s).Engine.full_solves;
  check "equivalent" true (equivalent s)

(* --- batched submission ------------------------------------------------------ *)

let test_submit_batch () =
  let inst = instance_of_arcs 6 base_arcs [ [ 4; 5 ] ] in
  let s = warmed inst in
  let batch =
    Engine.submit s
      [
        Engine.Add_path [ 0; 1; 2 ];
        Engine.Add_path [ 0; 99 ];
        (* rejected *)
        Engine.Remove_path 0;
        Engine.Add_arc (3, 5);
      ]
  in
  check_int "outcomes" 4 (Array.length batch.Engine.outcomes);
  (match batch.Engine.outcomes.(0) with
  | Ok (Engine.Path_added _) -> ()
  | _ -> Alcotest.fail "op 0 should add");
  (match batch.Engine.outcomes.(1) with
  | Error (Error.Invalid_path _) -> ()
  | _ -> Alcotest.fail "op 1 should be rejected");
  (match batch.Engine.outcomes.(2) with
  | Ok (Engine.Path_removed 0) -> ()
  | _ -> Alcotest.fail "op 2 should remove");
  (match batch.Engine.outcomes.(3) with
  | Ok (Engine.Arc_added _) -> ()
  | _ -> Alcotest.fail "op 3 should add an arc");
  check "batch report equivalent" true (equivalent s)

let random_ops rng g ~n_initial ~count =
  let n = Digraph.n_vertices g in
  let next = ref n_initial in
  List.init count (fun _ ->
      match Prng.int rng 10 with
      | 0 | 1 ->
        if !next = 0 then Engine.Add_arc (Prng.int rng n, Prng.int rng n)
        else Engine.Remove_path (Prng.int rng !next)
      | 2 -> Engine.Add_arc (Prng.int rng n, Prng.int rng n)
      | _ ->
        (* random walk; may die immediately (rejected op — also useful) *)
        let rec go v acc len =
          let succs = Digraph.succ g v in
          if succs = [] || len >= 5 || (len >= 1 && Prng.bernoulli rng 0.3) then
            List.rev acc
          else
            let w = Prng.choose_list rng succs in
            go w (w :: acc) (len + 1)
        in
        let v0 = Prng.int rng n in
        incr next;
        Engine.Add_path (go v0 [ v0 ] 0))

(* --- the equivalence property over random op sequences ----------------------- *)

let equivalence_prop ?repair_budget seed =
  let inst = random_nic_instance ~n:14 ~k:8 seed in
  let s = Engine.create ?repair_budget inst in
  ignore (Engine.report s);
  let rng = Prng.create (seed lxor 0x5eed) in
  let ops =
    random_ops rng (Instance.graph inst) ~n_initial:(Instance.n_paths inst)
      ~count:25
  in
  List.for_all
    (fun op ->
      ignore (Engine.submit s [ op ]);
      equivalent s)
    ops

let equivalence_random =
  qtest "random op sequences match a fresh solve" seed_gen ~count:60
    (fun seed -> equivalence_prop seed)

let equivalence_no_budget =
  qtest "random op sequences match with repairs disabled" seed_gen ~count:30
    (fun seed -> equivalence_prop ~repair_budget:0 seed)

(* --- scripts ----------------------------------------------------------------- *)

let sample_ops =
  [
    Engine.Add_path [ 0; 1; 2 ];
    Engine.Remove_path 3;
    Engine.Add_arc (4, 5);
    Engine.Add_path [ 2; 3 ];
  ]

let test_script_roundtrip () =
  (match Script.of_string (Script.to_string sample_ops) with
  | Ok ops -> check "text roundtrip" true (ops = sample_ops)
  | Error e -> Alcotest.failf "text: %s" (Error.to_string e));
  (match Script.of_json (Script.to_json sample_ops) with
  | Ok ops -> check "json roundtrip" true (ops = sample_ops)
  | Error e -> Alcotest.failf "json: %s" (Error.to_string e));
  match Script.of_json (Script.to_json ~pretty:true sample_ops) with
  | Ok ops -> check "pretty json roundtrip" true (ops = sample_ops)
  | Error e -> Alcotest.failf "pretty json: %s" (Error.to_string e)

let test_script_files () =
  let tmp = Filename.temp_file "wl_ops" ".wlops" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Script.write_file tmp sample_ops;
      match Script.read_file tmp with
      | Ok ops -> check "file roundtrip" true (ops = sample_ops)
      | Error e -> Alcotest.failf "read: %s" (Error.to_string e))

let test_script_errors () =
  (match Script.of_string "wlops 9" with
  | Error (Error.Unsupported_version 9) -> ()
  | _ -> Alcotest.fail "future version accepted");
  (match Script.of_string "teleport 1 2" with
  | Error (Error.Parse _) -> ()
  | _ -> Alcotest.fail "unknown op accepted");
  match Script.of_json "{\"format\": \"wl-ops\"}" with
  | Error (Error.Parse _) -> ()
  | _ -> Alcotest.fail "missing ops accepted"

let test_script_drives_session () =
  let inst = instance_of_arcs 6 base_arcs [ [ 4; 5 ] ] in
  let s = warmed inst in
  let script = "path 0 1 2\nremove 0\narc 3 5\npath 2 3\n" in
  let ops = ok_exn "parse" (Script.of_string script) in
  let batch = Engine.submit s ops in
  check_int "all accepted" 0
    (Array.fold_left
       (fun acc r -> match r with Ok _ -> acc | Error _ -> acc + 1)
       0 batch.Engine.outcomes);
  check "equivalent" true (equivalent s)

let suite =
  [
    ( "engine",
      [
        Alcotest.test_case "warm hit" `Quick test_warm_hit;
        Alcotest.test_case "fresh color" `Quick test_fresh_color;
        Alcotest.test_case "kempe repair" `Quick test_kempe_repair;
        Alcotest.test_case "budget fallback" `Quick test_budget_exhaustion_falls_back;
        Alcotest.test_case "warm remove and shrink" `Quick test_warm_remove_and_shrink;
        Alcotest.test_case "remove empties class" `Quick test_remove_empties_class;
        Alcotest.test_case "rejections" `Quick test_rejections;
        Alcotest.test_case "classification flip" `Quick
          test_classification_flip_forces_resolve;
        Alcotest.test_case "full solves reuse the classification" `Quick
          test_full_solves_reuse_classification;
        Alcotest.test_case "add_arc keeps warm" `Quick
          test_add_arc_keeps_warm_when_still_nic;
        Alcotest.test_case "instance sees arcs added before it" `Quick
          test_instance_sees_arcs_added_before_it;
        Alcotest.test_case "dirty reports share one DAG" `Quick
          test_dirty_reports_share_one_dag;
        Alcotest.test_case "submit batch" `Quick test_submit_batch;
        equivalence_random;
        equivalence_no_budget;
        Alcotest.test_case "script roundtrip" `Quick test_script_roundtrip;
        Alcotest.test_case "script files" `Quick test_script_files;
        Alcotest.test_case "script errors" `Quick test_script_errors;
        Alcotest.test_case "script drives session" `Quick test_script_drives_session;
      ] );
  ]
