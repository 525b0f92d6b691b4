(* Tests for Theorem 7: the Havet family attains w = ceil(8h/3) = the
   Theorem 6 bound, with pi = 2h. *)

open Helpers
open Wl_core
module Figures = Wl_netgen.Figures
module Ugraph = Wl_conflict.Ugraph
module Clique = Wl_conflict.Clique
module Graph_props = Wl_conflict.Graph_props

(* The Wagner graph V8 = C8 plus antipodal chords. *)
let is_wagner cg =
  Ugraph.n_vertices cg = 8
  && Ugraph.n_edges cg = 12
  &&
  (* Find a hamiltonian cycle ordering under which chords are antipodal:
     check the known edge pattern directly up to the construction's fixed
     indexing. *)
  List.for_all
    (fun i ->
      Ugraph.mem_edge cg i ((i + 1) mod 8) && Ugraph.mem_edge cg i ((i + 4) mod 8))
    (List.init 8 Fun.id)

let test_base_structure () =
  let inst = Figures.havet 1 in
  let cg = Conflict_of.build inst in
  check "conflict graph is C8 + antipodal chords" true (is_wagner cg);
  check_int "pi = 2" 2 (Load.pi inst);
  check_int "w = 3" 3 (Bounds.chromatic_exact inst);
  check_int "alpha = 3" 3 (Clique.independence_number cg);
  check_int "clique = 2" 2 (Clique.clique_number cg)

let test_graph_properties () =
  let dag = Wl_core.Instance.dag (Figures.havet 1) in
  check "UPP" true (Wl_dag.Upp.is_upp dag);
  check_int "one internal cycle" 1 (Wl_dag.Internal_cycle.count_independent dag);
  check_int "12 vertices" 12 (Wl_dag.Dag.n_vertices dag);
  check_int "12 arcs" 12 (Wl_dag.Dag.n_arcs dag)

let expected_w h = Replication.ceil_div (8 * h) 3

let test_replicated_loads () =
  List.iter
    (fun h ->
      let inst = Figures.havet h in
      check_int "8h dipaths" (8 * h) (Instance.n_paths inst);
      check_int "pi = 2h" (2 * h) (Load.pi inst))
    [ 1; 2; 3; 5; 8 ]

(* Lower bound: each wavelength class is independent in V8[K_h], and
   alpha(V8[K_h]) = alpha(V8) = 3, so w >= ceil(8h/3). *)
let test_lower_bound_via_alpha () =
  List.iter
    (fun h ->
      let inst = Figures.havet h in
      check_int
        (Printf.sprintf "independence lower bound, h=%d" h)
        (expected_w h)
        (Bounds.independence_lower inst))
    [ 1; 2; 3; 4 ]

(* Upper bound: the covering-design coloring uses exactly ceil(8h/3). *)
let test_upper_bound_via_covering () =
  List.iter
    (fun h ->
      let inst = Figures.havet h in
      match
        Replication.covering_coloring ~n_base:8
          ~sets:(Figures.havet_base_independent_sets ())
          ~h ~n_colors:(expected_w h)
      with
      | None -> Alcotest.fail "covering coloring must exist at ceil(8h/3)"
      | Some a ->
        check "valid" true (Assignment.is_valid inst a);
        check_int "uses exactly ceil(8h/3)" (expected_w h)
          (Assignment.n_wavelengths (Assignment.normalize a)))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 12 ]

let test_covering_fails_below () =
  List.iter
    (fun h ->
      check "no covering below the optimum" true
        (Replication.covering_coloring ~n_base:8
           ~sets:(Figures.havet_base_independent_sets ())
           ~h
           ~n_colors:(expected_w h - 1)
        = None))
    [ 1; 2; 3; 4; 5; 9 ]

(* Exact confirmation for small h: w is exactly ceil(8h/3), i.e. the
   Theorem 6 bound ceil(4 pi/3) is attained (Theorem 7). *)
let test_exact_small () =
  List.iter
    (fun h ->
      let inst = Figures.havet h in
      let w = Bounds.chromatic_exact inst in
      check_int (Printf.sprintf "w at h=%d" h) (expected_w h) w;
      check_int "attains theorem6 bound" (Theorem6.upper_bound (2 * h)) w)
    [ 1; 2; 3 ]

let test_base_sets_independent () =
  let inst = Figures.havet 1 in
  let cg = Conflict_of.build inst in
  Array.iter
    (fun s -> check "independent" true (is_independent cg s))
    (Figures.havet_base_independent_sets ());
  (* And each vertex is covered exactly 3 times. *)
  let count = Array.make 8 0 in
  Array.iter
    (fun s -> List.iter (fun v -> count.(v) <- count.(v) + 1) s)
    (Figures.havet_base_independent_sets ());
  check "uniform 3-cover" true (Array.for_all (fun c -> c = 3) count)

let test_odd_cycle_sets_independent () =
  List.iter
    (fun k ->
      let inst = Figures.fig5 k in
      let cg = Conflict_of.build inst in
      Array.iter
        (fun s -> check "independent in C_{2k+1}" true (is_independent cg s))
        (Figures.odd_cycle_independent_sets k))
    [ 2; 3; 4 ]

let test_ratio_tends_to_4_3 () =
  (* w / pi = ceil(8h/3) / 2h -> 4/3 from above. *)
  let ratio h = float_of_int (expected_w h) /. float_of_int (2 * h) in
  check "h=1 ratio 1.5" true (abs_float (ratio 1 -. 1.5) < 1e-9);
  check "h=3 ratio 4/3" true (abs_float (ratio 3 -. (4.0 /. 3.0)) < 1e-9);
  check "monotone toward 4/3" true (ratio 1 >= ratio 2 && ratio 2 >= ratio 3)

let suite =
  [
    ( "theorem-7-havet",
      [
        Alcotest.test_case "base conflict graph" `Quick test_base_structure;
        Alcotest.test_case "graph properties" `Quick test_graph_properties;
        Alcotest.test_case "replicated loads" `Quick test_replicated_loads;
        Alcotest.test_case "lower bound via alpha" `Quick test_lower_bound_via_alpha;
        Alcotest.test_case "upper bound via covering" `Quick
          test_upper_bound_via_covering;
        Alcotest.test_case "covering fails below optimum" `Quick
          test_covering_fails_below;
        Alcotest.test_case "exact w for small h" `Slow test_exact_small;
        Alcotest.test_case "base independent sets" `Quick test_base_sets_independent;
        Alcotest.test_case "odd cycle independent sets" `Quick
          test_odd_cycle_sets_independent;
        Alcotest.test_case "ratio tends to 4/3" `Quick test_ratio_tends_to_4_3;
      ] );
  ]
