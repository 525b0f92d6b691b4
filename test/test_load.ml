(* Tests for instances, loads, conflict-graph construction, assignments. *)

open Helpers
open Wl_core
open Wl_digraph
module Dag = Wl_dag.Dag
module Ugraph = Wl_conflict.Ugraph
module Graph_props = Wl_conflict.Graph_props
module Figures = Wl_netgen.Figures

let line_instance () =
  let g = Digraph.of_arcs 5 (List.init 4 (fun i -> (i, i + 1))) in
  let dag = Dag.of_digraph_exn g in
  let p l = Dipath.make g l in
  (g, Instance.make dag [ p [ 0; 1; 2 ]; p [ 1; 2; 3 ]; p [ 3; 4 ] ])

let test_loads () =
  let _, inst = line_instance () in
  (* Arc ids on the line: (i, i+1) -> i. *)
  check_int "load arc0" 1 (Load.arc_load inst 0);
  check_int "load arc1" 2 (Load.arc_load inst 1);
  check_int "load arc2" 1 (Load.arc_load inst 2);
  check_int "pi" 2 (Load.pi inst);
  check_int "load arc3" 1 (Load.arc_load inst 3);
  check_int "max among" 1 (Load.max_load_arc_among inst [ 0; 1; 2 ])

let test_paths_through () =
  let _, inst = line_instance () in
  check "arc1 users" true (paths_through inst 1 = [ 0; 1 ]);
  check "arc3 users" true (paths_through inst 3 = [ 2 ])

let test_empty_instance () =
  let g = Digraph.of_arcs 3 [ (0, 1) ] in
  let inst = Instance.make (Dag.of_digraph_exn g) [] in
  check_int "pi of empty" 0 (Load.pi inst);
  check_int "no load" 0 (Load.arc_load inst 0)

let test_add_paths () =
  let g, inst = line_instance () in
  let inst2 = Instance.add_paths inst [ Dipath.make g [ 0; 1 ] ] in
  check_int "count grew" 4 (Instance.n_paths inst2);
  check "old preserved" true
    (Dipath.equal (Instance.path inst2 0) (Instance.path inst 0));
  check_int "old unchanged" 3 (Instance.n_paths inst)

let test_fig3_conflict_graph () =
  let inst = Figures.fig3 () in
  let cg = Conflict_of.build inst in
  check_int "5 vertices" 5 (Ugraph.n_vertices cg);
  check "C5" true (Graph_props.is_cycle_graph cg);
  check_int "pi = 2" 2 (Load.pi inst);
  check_int "clique bound" 2 (Wl_conflict.Clique.clique_number cg)

let conflict_graph_matches_pairwise =
  qtest "conflict graph edges = pairwise arc sharing" seed_gen (fun seed ->
      let inst = random_instance seed in
      let cg = Conflict_of.build inst in
      let ps = Instance.paths inst in
      let ok = ref true in
      Array.iteri
        (fun i p ->
          Array.iteri
            (fun j q ->
              if i < j && Ugraph.mem_edge cg i j <> Dipath.shares_arc p q then
                ok := false)
            ps)
        ps;
      !ok)

let test_helly_witness_on_fig1 () =
  (* Figure 1 with k >= 3: complete conflict graph, no common arc. *)
  let inst = Figures.fig1 4 in
  match Conflict_of.helly_witness inst with
  | Some [ _; _; _ ] -> ()
  | Some _ -> Alcotest.fail "witness should be a triple"
  | None -> Alcotest.fail "fig1 must violate the Helly property"

let test_assignment_validity () =
  let _, inst = line_instance () in
  check "valid" true (Assignment.is_valid inst [| 0; 1; 0 |]);
  check "invalid" false (Assignment.is_valid inst [| 0; 0; 1 |]);
  (match Assignment.first_conflict inst [| 0; 0; 1 |] with
  | Some (0, 1, 1) -> ()
  | _ -> Alcotest.fail "expected conflict of paths 0,1 on arc 1");
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Assignment: length mismatch with family") (fun () ->
      ignore (Assignment.is_valid inst [| 0; 1 |]));
  Alcotest.check_raises "negative color"
    (Invalid_argument "Assignment: negative color") (fun () ->
      ignore (Assignment.is_valid inst [| 0; -1; 2 |]))

let test_assignment_normalize () =
  let a = Assignment.normalize [| 5; 9; 5; 0 |] in
  check "normalized" true (a = [| 0; 1; 0; 2 |]);
  check_int "wavelength count" 3 (Assignment.n_wavelengths a);
  check_int "empty" 0 (Assignment.n_wavelengths [||])

let bounds_are_ordered =
  qtest "pi <= clique <= chromatic <= heuristic" seed_gen ~count:40 (fun seed ->
      let inst = random_instance ~n:12 ~k:7 seed in
      let pi = Load.pi inst in
      let clique = Wl_conflict.Clique.clique_number (Conflict_of.build inst) in
      let chi = Bounds.chromatic_exact inst in
      let heur = Bounds.heuristic_upper inst in
      let indep = Bounds.independence_lower inst in
      pi <= clique && clique <= chi && chi <= heur && indep <= chi)

(* Line instances give interval conflict graphs, which are perfect:
   chromatic = clique = load — Theorem 1's equality seen through the
   conflict graph. *)
let line_conflict_graphs_are_perfectish =
  qtest "on lines: chromatic = clique = pi" seed_gen ~count:30 (fun seed ->
      let rng = Wl_util.Prng.create seed in
      let g = Digraph.of_arcs 14 (List.init 13 (fun i -> (i, i + 1))) in
      let dag = Dag.of_digraph_exn g in
      let paths =
        List.init 10 (fun _ ->
            let lo = Wl_util.Prng.int rng 12 in
            let hi = Wl_util.Prng.int_in rng (lo + 1) 13 in
            Dipath.make g (List.init (hi - lo + 1) (fun i -> lo + i)))
      in
      let inst = Instance.make dag paths in
      let cg = Conflict_of.build inst in
      let chi = Wl_conflict.Exact.chromatic_number cg in
      chi = Wl_conflict.Clique.clique_number cg && chi = Load.pi inst)

let test_theorem6_upper_formula () =
  check_int "pi=3 one cycle" 4 (Bounds.theorem6_upper ~n_internal_cycles:1 3);
  check_int "pi=2 one cycle" 3 (Bounds.theorem6_upper ~n_internal_cycles:1 2);
  check_int "no cycle" 7 (Bounds.theorem6_upper ~n_internal_cycles:0 7);
  check_int "two cycles" 8 (Bounds.theorem6_upper ~n_internal_cycles:2 4)

let suite =
  [
    ( "load-and-conflicts",
      [
        Alcotest.test_case "arc loads" `Quick test_loads;
        Alcotest.test_case "paths through" `Quick test_paths_through;
        Alcotest.test_case "empty instance" `Quick test_empty_instance;
        Alcotest.test_case "add paths" `Quick test_add_paths;
        Alcotest.test_case "fig3 conflict graph is C5" `Quick test_fig3_conflict_graph;
        conflict_graph_matches_pairwise;
        Alcotest.test_case "fig1 violates Helly" `Quick test_helly_witness_on_fig1;
        Alcotest.test_case "assignment validity" `Quick test_assignment_validity;
        Alcotest.test_case "assignment normalize" `Quick test_assignment_normalize;
        bounds_are_ordered;
        line_conflict_graphs_are_perfectish;
        Alcotest.test_case "theorem6 upper formula" `Quick test_theorem6_upper_formula;
      ] );
  ]
