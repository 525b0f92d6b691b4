(* Tests for the undirected graph substrate: coloring, cliques, probes. *)

open Helpers
module Ugraph = Wl_conflict.Ugraph
module Coloring = Wl_conflict.Coloring
module Clique = Wl_conflict.Clique
module Exact = Wl_conflict.Exact
module Graph_props = Wl_conflict.Graph_props

let cycle n =
  Ugraph.of_edges n (List.init n (fun i -> (i, (i + 1) mod n)))

let complete n =
  let es = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      es := (u, v) :: !es
    done
  done;
  Ugraph.of_edges n !es

let test_ugraph_basics () =
  let g = Ugraph.create 4 in
  Ugraph.add_edge g 0 1;
  Ugraph.add_edge g 1 0;
  check_int "dedup edges" 1 (Ugraph.n_edges g);
  check "mem both ways" true (Ugraph.mem_edge g 1 0);
  check_int "degree" 1 (Ugraph.degree g 0);
  Alcotest.check_raises "self loop" (Invalid_argument "Ugraph.add_edge: self-loop")
    (fun () -> Ugraph.add_edge g 2 2);
  check "edges canonical" true (Ugraph.edges g = [ (0, 1) ])

let test_complement () =
  let g = cycle 5 in
  let c = Ugraph.complement g in
  check_int "complement edges" (10 - 5) (Ugraph.n_edges c);
  check "no overlap" true
    (List.for_all (fun (u, v) -> not (Ugraph.mem_edge g u v)) (Ugraph.edges c))

let colorings_valid =
  qtest "greedy/WP/DSATUR produce valid colorings"
    QCheck2.Gen.(pair seed_gen (int_range 1 25))
    (fun (seed, n) ->
      let g = random_ugraph seed n 0.35 in
      Coloring.is_valid g (Coloring.greedy g)
      && Coloring.is_valid g (Coloring.greedy_desc_degree g)
      && Coloring.is_valid g (Coloring.dsatur g))

let exact_matches_brute =
  qtest "exact chromatic = brute force (tiny graphs)"
    QCheck2.Gen.(pair seed_gen (int_range 1 7))
    (fun (seed, n) ->
      let g = random_ugraph seed n 0.5 in
      Exact.chromatic_number g = brute_chromatic g)

let exact_below_heuristics =
  qtest "chromatic <= heuristics; optimal coloring valid & tight"
    QCheck2.Gen.(pair seed_gen (int_range 1 16))
    (fun (seed, n) ->
      let g = random_ugraph seed n 0.4 in
      let chi = Exact.chromatic_number g in
      let c = Exact.optimal_coloring g in
      Coloring.is_valid g c
      && Coloring.n_colors (Coloring.normalize c) = chi
      && chi <= Coloring.n_colors (Coloring.normalize (Coloring.best_heuristic g)))

let k_colorable_boundary =
  qtest "k_colorable: None below chi, Some at chi"
    QCheck2.Gen.(pair seed_gen (int_range 1 10))
    (fun (seed, n) ->
      let g = random_ugraph seed n 0.5 in
      let chi = Exact.chromatic_number g in
      (chi = 0 || Exact.k_colorable g (chi - 1) = None)
      && Exact.k_colorable g chi <> None)

let clique_matches_brute =
  qtest "max clique = brute force (tiny graphs)"
    QCheck2.Gen.(pair seed_gen (int_range 1 10))
    (fun (seed, n) ->
      let g = random_ugraph seed n 0.5 in
      let c = Clique.max_clique g in
      Ugraph.is_clique g c && List.length c = brute_clique_number g)

let independent_is_clique_of_complement =
  qtest "independence number via complement"
    QCheck2.Gen.(pair seed_gen (int_range 1 10))
    (fun (seed, n) ->
      let g = random_ugraph seed n 0.4 in
      let s = Clique.max_independent_set g in
      Ugraph.is_independent g s
      && List.length s = brute_clique_number (Ugraph.complement g))

let greedy_clique_is_clique =
  qtest "greedy clique is a clique" QCheck2.Gen.(pair seed_gen (int_range 1 20))
    (fun (seed, n) ->
      let g = random_ugraph seed n 0.4 in
      Ugraph.is_clique g (Clique.greedy_clique g))

let petersen () =
  (* Outer C5, inner pentagram, spokes. *)
  Ugraph.of_edges 10
    ([ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]
    @ [ (5, 7); (7, 9); (9, 6); (6, 8); (8, 5) ]
    @ List.init 5 (fun i -> (i, i + 5)))

let test_known_chromatics () =
  check_int "C5" 3 (Exact.chromatic_number (cycle 5));
  check_int "C6" 2 (Exact.chromatic_number (cycle 6));
  check_int "K7" 7 (Exact.chromatic_number (complete 7));
  check_int "empty" 1 (Exact.chromatic_number (Ugraph.create 5));
  check_int "null" 0 (Exact.chromatic_number (Ugraph.create 0));
  check_int "Petersen chi" 3 (Exact.chromatic_number (petersen ()));
  check_int "Petersen clique" 2 (Clique.clique_number (petersen ()));
  check_int "Petersen alpha" 4 (Clique.independence_number (petersen ()));
  check "Petersen odd girth 5" true (Graph_props.odd_girth (petersen ()) = Some 5);
  (* Wagner graph (Theorem 7's conflict graph), direct construction. *)
  let wagner =
    Ugraph.of_edges 8
      (List.init 8 (fun i -> (i, (i + 1) mod 8))
      @ List.init 4 (fun i -> (i, i + 4)))
  in
  check_int "Wagner chi" 3 (Exact.chromatic_number wagner);
  check_int "Wagner alpha" 3 (Clique.independence_number wagner)

let test_k23_probe () =
  (* K_{2,3}: 0,1 vs 2,3,4. *)
  let g = Ugraph.of_edges 5 [ (0, 2); (0, 3); (0, 4); (1, 2); (1, 3); (1, 4) ] in
  (match Graph_props.find_k23 g with
  | Some (pair, triple) ->
    check "pair size" true (List.length pair = 2);
    check "triple size" true (List.length triple = 3);
    check "complete bipartite" true
      (List.for_all (fun u -> List.for_all (fun v -> Ugraph.mem_edge g u v) triple) pair)
  | None -> Alcotest.fail "K23 not found");
  check "C6 has no K23" false (Graph_props.has_k23 (cycle 6));
  check "K5 has no independent-sides K23" false (Graph_props.has_k23 (complete 5));
  (* K_{2,4} contains it. *)
  let k24 =
    Ugraph.of_edges 6
      [ (0, 2); (0, 3); (0, 4); (0, 5); (1, 2); (1, 3); (1, 4); (1, 5) ]
  in
  check "K24 has K23" true (Graph_props.has_k23 k24)

let test_k5_minus_probe () =
  check "K5 itself does not qualify" true
    (Graph_props.find_k5_minus_two_independent_edges (complete 5) = None);
  (* K5 minus two adjacent edges does not contain K5 minus two
     independent ones. *)
  let g = complete 5 in
  let h = Ugraph.create 5 in
  List.iter
    (fun (u, v) -> if not ((u, v) = (0, 1) || (u, v) = (0, 2)) then Ugraph.add_edge h u v)
    (Ugraph.edges g);
  check "adjacent removals disqualify" true
    (Graph_props.find_k5_minus_two_independent_edges h = None);
  (* Removing two independent edges qualifies. *)
  let h2 = Ugraph.create 5 in
  List.iter
    (fun (u, v) -> if not ((u, v) = (0, 1) || (u, v) = (2, 3)) then Ugraph.add_edge h2 u v)
    (Ugraph.edges g);
  check "independent removals qualify" true
    (Graph_props.find_k5_minus_two_independent_edges h2 <> None)

let test_cycle_probe () =
  check "C5 is cycle" true (Graph_props.is_cycle_graph (cycle 5));
  check "K4 not cycle" false (Graph_props.is_cycle_graph (complete 4));
  check "disjoint cycles not one cycle" false
    (Graph_props.is_cycle_graph
       (Ugraph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]));
  check "lengths" true
    (Graph_props.induced_cycle_lengths
       (Ugraph.of_edges 7 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 6); (6, 3) ])
    = [ 3; 4 ])

let dimacs_roundtrip =
  qtest "DIMACS roundtrip" QCheck2.Gen.(pair seed_gen (int_range 0 20))
    (fun (seed, n) ->
      let g = random_ugraph seed n 0.3 in
      match Wl_conflict.Dimacs.of_string (Wl_conflict.Dimacs.to_string ~comment:"test" g) with
      | Ok g' -> Ugraph.equal g g'
      | Error _ -> false)

let test_dimacs_errors () =
  let bad expected text =
    match Wl_conflict.Dimacs.of_string text with
    | Ok _ -> Alcotest.failf "expected failure: %s" expected
    | Error msg -> check expected true (String.length msg > 0)
  in
  bad "no header" "e 1 2\n";
  bad "missing header" "c nothing\n";
  bad "duplicate header" "p edge 2 0\np edge 2 0\n";
  bad "bad edge" "p edge 2 1\ne 1 5\n";
  bad "unknown" "p edge 1 0\nq zzz\n";
  match Wl_conflict.Dimacs.of_string "c ok\np edge 3 1\ne 1 3\n" with
  | Ok g ->
    check "parsed edge" true (Ugraph.mem_edge g 0 2);
    check_int "vertices" 3 (Ugraph.n_vertices g)
  | Error msg -> Alcotest.failf "should parse: %s" msg

let test_odd_girth () =
  check "C5 odd girth 5" true (Graph_props.odd_girth (cycle 5) = Some 5);
  check "C6 bipartite" true (Graph_props.odd_girth (cycle 6) = None);
  check "K4 triangle" true (Graph_props.odd_girth (complete 4) = Some 3)

let suite =
  [
    ( "conflict-graph",
      [
        Alcotest.test_case "ugraph basics" `Quick test_ugraph_basics;
        Alcotest.test_case "complement" `Quick test_complement;
        colorings_valid;
        exact_matches_brute;
        exact_below_heuristics;
        k_colorable_boundary;
        clique_matches_brute;
        independent_is_clique_of_complement;
        greedy_clique_is_clique;
        Alcotest.test_case "known chromatic numbers" `Quick test_known_chromatics;
        Alcotest.test_case "K23 probe" `Quick test_k23_probe;
        Alcotest.test_case "K5-minus probe" `Quick test_k5_minus_probe;
        Alcotest.test_case "cycle probes" `Quick test_cycle_probe;
        dimacs_roundtrip;
        Alcotest.test_case "dimacs errors" `Quick test_dimacs_errors;
        Alcotest.test_case "odd girth" `Quick test_odd_girth;
      ] );
  ]
