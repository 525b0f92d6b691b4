(* Tests for the Theorem 1 constructive algorithm: on DAGs without internal
   cycle, the returned assignment is valid and uses exactly pi wavelengths —
   and on DAGs with an internal cycle the recoloring cascade may surface the
   paper's case C, never anything else. *)

open Helpers
open Wl_core
open Wl_digraph
module Dag = Wl_dag.Dag
module Prng = Wl_util.Prng
module Figures = Wl_netgen.Figures
module Generators = Wl_netgen.Generators
module Path_gen = Wl_netgen.Path_gen

let optimal_on inst =
  let assignment = Theorem1.color inst in
  Assignment.is_valid inst assignment
  && Assignment.n_wavelengths (Assignment.normalize assignment) = Load.pi inst

let test_empty_and_trivial () =
  let g = Digraph.of_arcs 2 [ (0, 1) ] in
  let dag = Dag.of_digraph_exn g in
  check "empty family" true (Theorem1.color (Instance.make dag []) = [||]);
  let p = Dipath.make g [ 0; 1 ] in
  let inst = Instance.make dag [ p; p; p ] in
  let a = Theorem1.color inst in
  check "triple arc valid" true (Assignment.is_valid inst a);
  check_int "three wavelengths" 3 (Assignment.n_wavelengths (Assignment.normalize a))

let theorem1_random_no_internal_cycle =
  qtest "w = pi on random DAGs without internal cycle" seed_gen ~count:150
    (fun seed -> optimal_on (random_nic_instance ~n:20 ~k:14 seed))

let theorem1_larger =
  qtest "w = pi at a larger scale" seed_gen ~count:10 (fun seed ->
      optimal_on (random_nic_instance ~n:60 ~p:0.08 ~k:50 seed))

let theorem1_rooted_trees =
  qtest "w = pi on rooted trees" seed_gen ~count:60 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.random_rooted_tree rng 25 in
      optimal_on (Path_gen.random_instance rng dag 18))

let theorem1_in_trees =
  qtest "w = pi on in-trees (reversed rooted trees)" seed_gen ~count:40
    (fun seed ->
      let rng = Prng.create seed in
      let tree = Generators.random_rooted_tree rng 25 in
      let dag = Dag.of_digraph_exn (Digraph.reverse (Dag.graph tree)) in
      optimal_on (Path_gen.random_instance rng dag 18))

let theorem1_lines =
  qtest "w = pi on lines (interval instances)" seed_gen ~count:40 (fun seed ->
      let rng = Prng.create seed in
      let g = Digraph.of_arcs 20 (List.init 19 (fun i -> (i, i + 1))) in
      let dag = Dag.of_digraph_exn g in
      let paths =
        List.init 15 (fun _ ->
            let lo = Prng.int rng 18 in
            let hi = Prng.int_in rng (lo + 1) 19 in
            Dipath.make g (List.init (hi - lo + 1) (fun i -> lo + i)))
      in
      optimal_on (Instance.make dag paths))

let theorem1_all_to_all_on_trees =
  qtest "w = pi for all-to-all on rooted trees (paper's warm-up)" seed_gen
    ~count:25 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.random_rooted_tree rng 12 in
      optimal_on (all_to_all_instance dag))

let theorem1_replicated_families =
  qtest "w = pi even on replicated families" seed_gen ~count:40 (fun seed ->
      let inst = random_nic_instance ~n:15 ~k:6 seed in
      optimal_on (Theorem2.replicate inst 3))

let test_fig1_small () =
  (* The k = 2 staircase has no internal cycle: Theorem 1 applies. *)
  let inst = Figures.fig1 2 in
  check_int "no cycles" 0
    (Wl_dag.Internal_cycle.count_independent (Instance.dag inst));
  check "optimal" true (optimal_on inst)

let chain_is_conflicting lists inst chain =
  (* Consecutive chain members must conflict. *)
  let ps = Instance.paths inst in
  let rec go = function
    | a :: (b :: _ as rest) -> Dipath.shares_arc ps.(a) ps.(b) && go rest
    | _ -> true
  in
  ignore lists;
  go chain

let test_case_c_on_fig3 () =
  let inst = Figures.fig3 () in
  match Theorem1.color_result inst with
  | Ok _ -> Alcotest.fail "theorem 1 must fail on fig3's family"
  | Error (chain, junction) ->
    check "chain length" true (List.length chain >= 2);
    check "chain links conflict" true (chain_is_conflicting () inst chain);
    (match Theorem1.witness_internal_cycle inst ~chain ~junction with
    | None -> Alcotest.fail "case C must exhibit an internal cycle"
    | Some walk ->
      let can = Wl_dag.Internal_cycle.canonicalize (Instance.dag inst) walk in
      check "witness verifies" true
        (Wl_dag.Internal_cycle.verify_canonical (Instance.dag inst) can))

let case_c_only_with_internal_cycles =
  qtest "case C implies an internal cycle exists" seed_gen ~count:80 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.gnp_dag rng 16 0.25 in
      let inst = Path_gen.random_instance rng dag 12 in
      match Theorem1.color_result inst with
      | Ok a ->
        Assignment.is_valid inst a
        && Assignment.n_wavelengths (Assignment.normalize a) = Load.pi inst
      | Error (chain, junction) ->
        Wl_dag.Internal_cycle.has_internal_cycle dag
        && chain_is_conflicting () inst chain
        &&
        (* The case-C construction must exhibit a concrete internal cycle. *)
        (match Theorem1.witness_internal_cycle inst ~chain ~junction with
        | None -> false
        | Some walk ->
          let can = Wl_dag.Internal_cycle.canonicalize dag walk in
          Wl_dag.Internal_cycle.verify_canonical dag can))

(* On every Theorem 2 family, Theorem 1 must reach case C (w = 3 > 2 = pi),
   and the case-C construction must exhibit a verified internal cycle. *)
let case_c_witness_on_theorem2_families =
  qtest "theorem-2 families force case C with a verified witness" seed_gen
    ~count:60 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.gnp_dag rng 14 0.3 in
      match Theorem2.build dag with
      | None -> true
      | Some inst -> (
        match Theorem1.color_result inst with
        | Ok _ -> false
        | Error (chain, junction) -> (
          match Theorem1.witness_internal_cycle inst ~chain ~junction with
          | None -> false
          | Some walk ->
            let can = Wl_dag.Internal_cycle.canonicalize dag walk in
            Wl_dag.Internal_cycle.verify_canonical dag can)))

let test_deterministic () =
  let inst = random_nic_instance ~n:20 ~k:12 424242 in
  check "same output twice" true (Theorem1.color inst = Theorem1.color inst)

let theorem1_on_theorem2_padded_split () =
  (* The exact shape Theorem 6 feeds it: splitting fig5's cycle arc removes
     the internal cycle, and Theorem 1 must succeed there. *)
  List.iter
    (fun k ->
      let inst = Figures.fig5 k in
      let a = Theorem6.color inst in
      check "theorem6 output valid (exercises theorem1 on split)" true
        (Assignment.is_valid inst a))
    [ 2; 3; 4 ]

let colors_within_palette =
  qtest "every used color is below pi" seed_gen ~count:60 (fun seed ->
      let inst = random_nic_instance ~n:18 ~k:12 seed in
      let a = Theorem1.color inst in
      Array.for_all (fun c -> c >= 0 && c < max 1 (Load.pi inst)) a)

let suite =
  [
    ( "theorem-1",
      [
        Alcotest.test_case "empty and trivial" `Quick test_empty_and_trivial;
        theorem1_random_no_internal_cycle;
        theorem1_larger;
        theorem1_rooted_trees;
        theorem1_in_trees;
        theorem1_lines;
        theorem1_all_to_all_on_trees;
        theorem1_replicated_families;
        Alcotest.test_case "fig1 k=2" `Quick test_fig1_small;
        Alcotest.test_case "case C on fig3" `Quick test_case_c_on_fig3;
        case_c_only_with_internal_cycles;
        case_c_witness_on_theorem2_families;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "feeds theorem 6 split" `Quick
          theorem1_on_theorem2_padded_split;
        colors_within_palette;
      ] );
  ]
