(* Tests for wavelength conversion. *)

open Helpers
open Wl_core
module Prng = Wl_util.Prng
module Figures = Wl_netgen.Figures

let w_of report = report.Solver.n_wavelengths

let all_vertices inst =
  Wl_digraph.Digraph.vertices (Instance.graph inst)

let test_no_converters_is_identity () =
  let inst = Figures.fig3 () in
  let r = Conversion.wavelengths inst ~converters:[] in
  check_int "same family size" (Instance.n_paths inst) (Array.length r.Solver.assignment);
  check_int "same w" 3 (w_of r)

let test_full_conversion_gives_pi () =
  (* Figure 3: w = 3 > 2 = pi; full conversion recovers pi. *)
  let inst = Figures.fig3 () in
  let r = Conversion.wavelengths inst ~converters:(all_vertices inst) in
  check_int "w_conv = pi" (Load.pi inst) (w_of r)

let full_conversion_pi_everywhere =
  qtest "full conversion gives w = pi on any DAG" seed_gen ~count:40
    (fun seed ->
      let inst = random_instance ~n:12 ~k:9 seed in
      let r = Conversion.wavelengths inst ~converters:(all_vertices inst) in
      w_of r = Load.pi inst)

let converters_never_hurt =
  qtest "adding converters never increases w" seed_gen ~count:30 (fun seed ->
      let inst = random_instance ~n:12 ~k:8 seed in
      let rng = Prng.create seed in
      let base = w_of (Solver.solve inst) in
      let some =
        Prng.sample_without_replacement rng 3
          (Wl_digraph.Digraph.n_vertices (Instance.graph inst))
      in
      let with_some = w_of (Conversion.wavelengths inst ~converters:some) in
      let with_all =
        w_of (Conversion.wavelengths inst ~converters:(all_vertices inst))
      in
      with_all <= with_some && with_some <= base && with_all = Load.pi inst)

let segments_count_consistent =
  qtest "segment counts sum to the split family size" seed_gen ~count:30
    (fun seed ->
      let inst = random_instance ~n:12 ~k:8 seed in
      let rng = Prng.create seed in
      let converters =
        Prng.sample_without_replacement rng 4
          (Wl_digraph.Digraph.n_vertices (Instance.graph inst))
      in
      (* one segment per dipath, plus one per interior converter vertex *)
      let segments p =
        let vs = Array.of_list (Wl_digraph.Dipath.vertices p) in
        let cuts = ref 0 in
        for i = 1 to Array.length vs - 2 do
          if List.mem vs.(i) converters then incr cuts
        done;
        1 + !cuts
      in
      let expected =
        List.fold_left (fun acc p -> acc + segments p) 0 (Instance.paths_list inst)
      in
      (* the report's assignment indexes the segments *)
      Array.length (Conversion.wavelengths inst ~converters).Solver.assignment = expected)

let split_preserves_load =
  qtest "splitting never changes any arc load" seed_gen ~count:30 (fun seed ->
      let inst = random_instance ~n:12 ~k:8 seed in
      let rng = Prng.create seed in
      let converters =
        Prng.sample_without_replacement rng 4
          (Wl_digraph.Digraph.n_vertices (Instance.graph inst))
      in
      (* the per-arc loads of the segment family are internal; its load is
         the report's pi *)
      (Conversion.wavelengths inst ~converters).Solver.pi = Load.pi inst)

let test_single_converter_on_fig3 () =
  (* Converting at the right vertex of figure 3 already breaks the C5. *)
  let inst = Figures.fig3 () in
  let placement, report = Conversion.greedy_placement inst ~budget:1 in
  check_int "one converter suffices" 2 (w_of report);
  check_int "placed one" 1 (List.length placement)

let test_greedy_placement_stops_early () =
  (* On a Theorem-1 instance converters cannot help: nothing gets placed. *)
  let inst = random_nic_instance ~n:12 ~k:8 3 in
  let placement, report = Conversion.greedy_placement inst ~budget:3 in
  check "no placement" true (placement = []);
  check_int "w = pi already" (Load.pi inst) (w_of report)

let suite =
  [
    ( "conversion",
      [
        Alcotest.test_case "no converters = identity" `Quick
          test_no_converters_is_identity;
        Alcotest.test_case "full conversion on fig3" `Quick
          test_full_conversion_gives_pi;
        full_conversion_pi_everywhere;
        converters_never_hurt;
        segments_count_consistent;
        split_preserves_load;
        Alcotest.test_case "one converter fixes fig3" `Quick
          test_single_converter_on_fig3;
        Alcotest.test_case "greedy placement stops early" `Quick
          test_greedy_placement_stops_early;
      ] );
  ]
