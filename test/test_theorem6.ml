(* Tests for the Theorem 6 algorithm: UPP-DAGs with one internal cycle get a
   valid assignment within ceil(4 pi / 3) wavelengths (on distinct-dipath
   families; see the faithfulness note in theorem6.mli). *)

open Helpers
open Wl_core
module Prng = Wl_util.Prng
module Figures = Wl_netgen.Figures
module Generators = Wl_netgen.Generators
module Path_gen = Wl_netgen.Path_gen

let test_upper_bound_formula () =
  check_int "pi=0" 0 (Theorem6.upper_bound 0);
  check_int "pi=1" 2 (Theorem6.upper_bound 1);
  check_int "pi=2" 3 (Theorem6.upper_bound 2);
  check_int "pi=3" 4 (Theorem6.upper_bound 3);
  check_int "pi=6" 8 (Theorem6.upper_bound 6)

let within_bound inst =
  let a, stats = Theorem6.color_with_stats inst in
  Assignment.is_valid inst a
  && stats.Theorem6.pi = Load.pi inst
  && stats.Theorem6.n_colors = Assignment.n_wavelengths (Assignment.normalize a)
  && stats.Theorem6.n_colors <= Theorem6.upper_bound stats.Theorem6.pi

let random_distinct =
  qtest "valid and within ceil(4 pi/3) on random one-cycle UPP instances"
    seed_gen ~count:150 (fun seed ->
      within_bound (random_upp_one_cycle_instance ~distinct:true seed))

let random_distinct_bigger =
  qtest "same, with larger families" seed_gen ~count:30 (fun seed ->
      within_bound (random_upp_one_cycle_instance ~k:30 ~distinct:true seed))

let test_on_figures () =
  List.iter
    (fun (name, inst) -> check name true (within_bound inst))
    [
      ("fig5 k=2", Figures.fig5 2);
      ("fig5 k=3", Figures.fig5 3);
      ("fig5 k=5", Figures.fig5 5);
      ("havet h=1", Figures.havet 1);
    ]

let test_not_applicable () =
  (* No internal cycle. *)
  let rng = Prng.create 4 in
  let dag = Generators.gnp_no_internal_cycle rng 12 0.2 in
  let inst = Path_gen.random_instance rng dag 8 in
  (try
     ignore (Theorem6.color inst);
     Alcotest.fail "should not apply without internal cycle"
   with Theorem6.Not_applicable _ -> ());
  (* Not UPP: figure 3's graph. *)
  let inst3 = Figures.fig3 () in
  try
    ignore (Theorem6.color inst3);
    Alcotest.fail "should not apply to non-UPP DAGs"
  with Theorem6.Not_applicable _ -> ()

let test_empty_family () =
  let dag = Wl_core.Instance.dag (Figures.fig5 2) in
  let inst = Instance.make dag [] in
  let a, stats = Theorem6.color_with_stats inst in
  check "empty assignment" true (a = [||]);
  check_int "zero colors" 0 stats.Theorem6.n_colors

let replicated_families_valid =
  (* The algorithm stays correct on replicated families even where the
     paper's fresh-color accounting breaks down; here we only demand
     validity plus the weaker pi + pi/2 + 1 budget that the per-class
     repair guarantees structurally. *)
  qtest "valid on replicated families" seed_gen ~count:30 (fun seed ->
      let base = random_upp_one_cycle_instance ~k:6 ~distinct:true seed in
      let inst = Theorem2.replicate base 3 in
      let a, stats = Theorem6.color_with_stats inst in
      Assignment.is_valid inst a
      && stats.Theorem6.n_colors <= Load.pi inst + (Load.pi inst / 2) + 2)

let test_replicated_havet_valid () =
  List.iter
    (fun h ->
      let inst = Figures.havet h in
      let a, stats = Theorem6.color_with_stats inst in
      check "valid" true (Assignment.is_valid inst a);
      (* On this family the minimum is ceil(8h/3); the by-the-book
         algorithm may overshoot (see theorem6.mli) but never below. *)
      check "not below optimum" true
        (stats.Theorem6.n_colors >= Replication.ceil_div (8 * h) 3))
    [ 1; 2; 3; 4 ]

let cycle_type_accounts_for_pi =
  qtest "permutation cycle type sums to pi" seed_gen ~count:60 (fun seed ->
      let inst = random_upp_one_cycle_instance ~distinct:true seed in
      let _, stats = Theorem6.color_with_stats inst in
      let total =
        List.fold_left (fun acc (l, m) -> acc + (l * m)) 0 stats.Theorem6.cycle_type
      in
      total = stats.Theorem6.pi)

let split_arc_is_on_cycle =
  qtest "split arc lies on the internal cycle" seed_gen ~count:40 (fun seed ->
      let inst = random_upp_one_cycle_instance ~distinct:true seed in
      let dag = Instance.dag inst in
      let _, stats = Theorem6.color_with_stats inst in
      if stats.Theorem6.pi = 0 then stats.Theorem6.split_arc = -1
      else
        match Wl_dag.Internal_cycle.find_canonical dag with
        | None -> false
        | Some can ->
          List.mem stats.Theorem6.split_arc
            (Wl_dag.Internal_cycle.arcs_of_canonical can))

let stats_fresh_consistent =
  qtest "colors used stay within pi + fresh" seed_gen ~count:60 (fun seed ->
      let inst = random_upp_one_cycle_instance ~distinct:true seed in
      let _, stats = Theorem6.color_with_stats inst in
      stats.Theorem6.n_colors <= stats.Theorem6.pi + stats.Theorem6.fresh_colors)

let suite =
  [
    ( "theorem-6",
      [
        Alcotest.test_case "bound formula" `Quick test_upper_bound_formula;
        random_distinct;
        random_distinct_bigger;
        Alcotest.test_case "paper figures" `Quick test_on_figures;
        Alcotest.test_case "not applicable cases" `Quick test_not_applicable;
        Alcotest.test_case "empty family" `Quick test_empty_family;
        replicated_families_valid;
        Alcotest.test_case "replicated havet validity" `Quick
          test_replicated_havet_valid;
        cycle_type_accounts_for_pi;
        split_arc_is_on_cycle;
        stats_fresh_consistent;
      ] );
  ]
