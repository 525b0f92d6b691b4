(* Tests for the iterated Theorem 6 recursion (the paper's closing remark):
   UPP-DAGs with C internal cycles colored within C nested ceilings of
   4 pi / 3. *)

open Helpers
open Wl_core
module Prng = Wl_util.Prng
module Generators = Wl_netgen.Generators
module Path_gen = Wl_netgen.Path_gen

let instance_with_cycles ?(k = 14) seed cycles =
  let rng = Prng.create seed in
  let dag = Generators.upp_internal_cycles rng ~cycles () in
  let paths = dedup_paths (Path_gen.random_family rng dag k) in
  Instance.make dag paths

(* The coloring and the number of splits it took, read from the
   [thm6multi.recursion_depth] histogram with metrics on. *)
let color_counting_splits inst =
  Wl_obs.Metrics.reset ();
  Wl_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Wl_obs.Metrics.set_enabled false)
    (fun () ->
      let a = Theorem6_multi.color inst in
      (a, (histogram_snapshot "thm6multi.recursion_depth").Wl_obs.Hdr.max))

let within_iterated_bound cycles inst =
  let a, splits = color_counting_splits inst in
  let pi = Load.pi inst in
  Assignment.is_valid inst a
  && Assignment.n_wavelengths (Assignment.normalize a)
     <= Theorem6_multi.upper_bound ~n_internal_cycles:cycles pi
  && splits <= cycles

let two_cycles =
  qtest "valid and within the iterated bound (C = 2)" seed_gen ~count:80
    (fun seed -> within_iterated_bound 2 (instance_with_cycles seed 2))

let three_cycles =
  qtest "valid and within the iterated bound (C = 3)" seed_gen ~count:40
    (fun seed -> within_iterated_bound 3 (instance_with_cycles seed 3))

let coincides_on_one_cycle =
  qtest "C = 1 coincides with Theorem 6" seed_gen ~count:40 (fun seed ->
      let inst = random_upp_one_cycle_instance ~distinct:true seed in
      let a1 = Theorem6.color inst in
      let a2 = Theorem6_multi.color inst in
      Assignment.n_wavelengths (Assignment.normalize a1)
      = Assignment.n_wavelengths (Assignment.normalize a2))

let test_generator_counts () =
  let rng = Prng.create 17 in
  List.iter
    (fun c ->
      let dag = Generators.upp_internal_cycles rng ~cycles:c () in
      check_int "cycle count" c (Wl_dag.Internal_cycle.count_independent dag);
      check "UPP" true (Wl_dag.Upp.is_upp dag))
    [ 1; 2; 3; 4; 5 ]

let test_not_applicable () =
  let rng = Prng.create 4 in
  let dag = Generators.gnp_no_internal_cycle rng 12 0.2 in
  let inst = Path_gen.random_instance rng dag 8 in
  try
    ignore (Theorem6_multi.color inst);
    Alcotest.fail "should not apply without internal cycle"
  with Theorem6.Not_applicable _ -> ()

let test_levels_report_splits () =
  let inst = instance_with_cycles ~k:16 5 3 in
  let _, splits = color_counting_splits inst in
  check "one split per internal cycle at most" true (splits >= 1 && splits <= 3)

let test_solver_dispatch () =
  let inst = instance_with_cycles ~k:40 21 2 in
  let r = Solver.solve inst in
  check "method" true
    (r.Solver.method_used = Solver.Theorem_6_iterated
    || r.Solver.method_used = Solver.Heuristic);
  check "valid" true (Assignment.is_valid inst r.Solver.assignment);
  check "within iterated bound" true
    (r.Solver.n_wavelengths
    <= Theorem6_multi.upper_bound ~n_internal_cycles:2 r.Solver.pi)

let suite =
  [
    ( "theorem-6-iterated",
      [
        two_cycles;
        three_cycles;
        coincides_on_one_cycle;
        Alcotest.test_case "generator cycle counts" `Quick test_generator_counts;
        Alcotest.test_case "not applicable" `Quick test_not_applicable;
        Alcotest.test_case "levels report splits" `Quick test_levels_report_splits;
        Alcotest.test_case "solver dispatch" `Quick test_solver_dispatch;
      ] );
  ]
