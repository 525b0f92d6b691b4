(* Tests for internal-cycle detection and canonicalization — the paper's
   central structural dichotomy. *)

open Helpers
open Wl_digraph
module Dag = Wl_dag.Dag
module IC = Wl_dag.Internal_cycle
module Prng = Wl_util.Prng
module Figures = Wl_netgen.Figures
module Generators = Wl_netgen.Generators

let dag_of arcs n = Dag.of_digraph_exn (Digraph.of_arcs n arcs)

let test_fig3_has_one () =
  let d = Wl_core.Instance.dag (Figures.fig3 ()) in
  check "has internal cycle" true (IC.has_internal_cycle d);
  check_int "exactly one" 1 (IC.count_independent d)

let test_fig5_has_one () =
  List.iter
    (fun k ->
      let d = Wl_core.Instance.dag (Figures.fig5 k) in
      check_int "one internal cycle" 1 (IC.count_independent d))
    [ 2; 3; 5 ]

let test_havet_has_one () =
  check_int "havet one cycle" 1 (IC.count_independent (Wl_core.Instance.dag (Figures.havet 1)))

let test_trees_have_none () =
  let rng = Prng.create 3 in
  for _ = 1 to 10 do
    let d = Generators.random_rooted_tree rng 30 in
    check "tree has none" false (IC.has_internal_cycle d);
    check_int "count zero" 0 (IC.count_independent d)
  done

let test_cycle_without_internality () =
  (* A diamond is an oriented cycle but its peak is a source and its valley
     a sink, so it is not internal. *)
  let d = dag_of [ (0, 1); (0, 2); (1, 3); (2, 3) ] 4 in
  check "diamond not internal" false (IC.has_internal_cycle d);
  (* Give the peak a predecessor and the valley a successor: now internal. *)
  let d2 = dag_of [ (0, 1); (0, 2); (1, 3); (2, 3); (4, 0); (3, 5) ] 6 in
  check "fed diamond internal" true (IC.has_internal_cycle d2);
  check_int "one" 1 (IC.count_independent d2)

let test_internality_needs_all_vertices () =
  (* Predecessor on the peak only: the valley is still a sink. *)
  let d = dag_of [ (0, 1); (0, 2); (1, 3); (2, 3); (4, 0) ] 5 in
  check "still not internal" false (IC.has_internal_cycle d)

let find_matches_count =
  qtest "find = Some iff count_independent > 0" seed_gen (fun seed ->
      let d = Dag.of_digraph_exn (gnp_dag seed 12 0.25) in
      (IC.find d <> None) = (IC.count_independent d > 0))

let canonical_well_formed =
  qtest "canonical witness verifies" seed_gen (fun seed ->
      let d = Dag.of_digraph_exn (gnp_dag seed 12 0.3) in
      match IC.find_canonical d with
      | None -> true
      | Some can -> IC.verify_canonical d can)

let canonical_on_figures () =
  List.iter
    (fun k ->
      let d = Wl_core.Instance.dag (Figures.fig5 k) in
      match IC.find_canonical d with
      | None -> Alcotest.fail "fig5 should have an internal cycle"
      | Some can ->
        check "verified" true (IC.verify_canonical d can);
        check_int "k peaks" k (Array.length can.IC.b);
        check_int "2k arcs" (2 * k) (List.length (IC.arcs_of_canonical can)))
    [ 2; 3; 4 ]

let test_growth_preserves_count () =
  (* Pendant growth must not change the internal cycle count: the
     generator's own 8 pendants, then 12 more hung off random vertices. *)
  let rng = Prng.create 11 in
  for _ = 1 to 10 do
    let g = Digraph.copy (Dag.graph (Generators.upp_one_internal_cycle rng ())) in
    for _ = 1 to 12 do
      let anchor = Prng.int rng (Digraph.n_vertices g) in
      let w = Digraph.add_vertex g in
      ignore
        (if Prng.bool rng then Digraph.add_arc g anchor w
         else Digraph.add_arc g w anchor)
    done;
    check_int "still one" 1 (IC.count_independent (Dag.of_digraph_exn g))
  done

let test_two_independent_cycles () =
  (* Two fed diamonds sharing nothing: count = 2. *)
  let arcs =
    [ (0, 1); (0, 2); (1, 3); (2, 3); (8, 0); (3, 9) ]
    @ [ (4, 5); (4, 6); (5, 7); (6, 7); (10, 4); (7, 11) ]
  in
  let d = dag_of arcs 12 in
  check_int "two cycles" 2 (IC.count_independent d)

let suite =
  [
    ( "internal-cycle",
      [
        Alcotest.test_case "fig3 has one" `Quick test_fig3_has_one;
        Alcotest.test_case "fig5 has one" `Quick test_fig5_has_one;
        Alcotest.test_case "havet has one" `Quick test_havet_has_one;
        Alcotest.test_case "trees have none" `Quick test_trees_have_none;
        Alcotest.test_case "internality matters" `Quick test_cycle_without_internality;
        Alcotest.test_case "all vertices must be internal" `Quick
          test_internality_needs_all_vertices;
        find_matches_count;
        canonical_well_formed;
        Alcotest.test_case "canonical on figures" `Quick canonical_on_figures;
        Alcotest.test_case "pendant growth preserves count" `Quick
          test_growth_preserves_count;
        Alcotest.test_case "two independent cycles" `Quick test_two_independent_cycles;
      ] );
  ]
