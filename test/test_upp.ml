(* Tests for UPP (unique dipath property) recognition. *)

open Helpers
open Wl_digraph
module Dag = Wl_dag.Dag
module Upp = Wl_dag.Upp
module Saturating = Wl_util.Saturating
module Prng = Wl_util.Prng
module Figures = Wl_netgen.Figures
module Generators = Wl_netgen.Generators

let dag_of arcs n = Dag.of_digraph_exn (Digraph.of_arcs n arcs)

let test_diamond_not_upp () =
  let d = dag_of [ (0, 1); (0, 2); (1, 3); (2, 3) ] 4 in
  check "diamond not UPP" false (Upp.is_upp d);
  match Upp.find_violation d with
  | None -> Alcotest.fail "expected violation"
  | Some v ->
    check_int "from" 0 v.Upp.from_v;
    check_int "to" 3 v.Upp.to_v;
    check "distinct dipaths" false (Dipath.equal v.Upp.path1 v.Upp.path2);
    check "endpoints 1" true
      (Dipath.src v.Upp.path1 = 0 && Dipath.dst v.Upp.path1 = 3);
    check "endpoints 2" true
      (Dipath.src v.Upp.path2 = 0 && Dipath.dst v.Upp.path2 = 3)

let test_line_upp () =
  let d = dag_of [ (0, 1); (1, 2); (2, 3) ] 4 in
  check "line is UPP" true (Upp.is_upp d)

let test_figures_upp () =
  check "fig5 UPP" true (Upp.is_upp (Wl_core.Instance.dag (Figures.fig5 3)));
  check "havet UPP" true (Upp.is_upp (Wl_core.Instance.dag (Figures.havet 1)));
  (* Figure 3's graph has two b1 ~> d1 dipaths: not UPP. *)
  check "fig3 not UPP" false (Upp.is_upp (Wl_core.Instance.dag (Figures.fig3 ())))

let upp_matches_enumeration =
  qtest "is_upp agrees with brute-force enumeration" seed_gen (fun seed ->
      let d = Dag.of_digraph_exn (gnp_dag seed 10 0.25) in
      let brute =
        let ok = ref true in
        for x = 0 to 9 do
          for y = 0 to 9 do
            if x <> y && List.length (Dag.all_dipaths_between ~limit:3 d x y) > 1
            then ok := false
          done
        done;
        !ok
      in
      Upp.is_upp d = brute)

let violation_paths_are_real =
  qtest "violation witnesses are distinct same-endpoint dipaths" seed_gen
    (fun seed ->
      let d = Dag.of_digraph_exn (gnp_dag seed 12 0.3) in
      match Upp.find_violation d with
      | None -> Upp.is_upp d
      | Some v ->
        (not (Dipath.equal v.Upp.path1 v.Upp.path2))
        && Dipath.src v.Upp.path1 = v.Upp.from_v
        && Dipath.src v.Upp.path2 = v.Upp.from_v
        && Dipath.dst v.Upp.path1 = v.Upp.to_v
        && Dipath.dst v.Upp.path2 = v.Upp.to_v)

let generator_produces_upp =
  qtest "gnp_upp produces UPP DAGs" seed_gen ~count:30 (fun seed ->
      Upp.is_upp (Generators.gnp_upp (Prng.create seed) 14 0.3))

let upp_one_cycle_generator =
  qtest "upp_one_internal_cycle: UPP with exactly one internal cycle" seed_gen
    ~count:30 (fun seed ->
      let d = Generators.upp_one_internal_cycle (Prng.create seed) () in
      Upp.is_upp d && Wl_dag.Internal_cycle.count_independent d = 1)

let routable_pairs_match_reachability =
  qtest "routable_pairs = reachable ordered pairs" seed_gen (fun seed ->
      let g = gnp_dag seed 10 0.25 in
      let d = Dag.of_digraph_exn g in
      let pairs = Upp.routable_pairs d in
      let expected = ref [] in
      for x = 9 downto 0 do
        let reach = Traversal.reachable_from g x in
        for y = 9 downto 0 do
          if x <> y && reach.(y) then expected := (x, y) :: !expected
        done
      done;
      List.sort compare pairs = List.sort compare !expected)

(* Every routable pair of a UPP DAG has exactly one dipath, and the
   hop-shortest route is that dipath. *)
let unique_dipath_is_unique_on_upp =
  qtest "unique_dipath returns the only dipath on UPP DAGs" seed_gen ~count:30
    (fun seed ->
      let d = Generators.gnp_upp (Prng.create seed) 12 0.3 in
      List.for_all
        (fun (x, y) ->
          match
            (Wl_core.Routing.route_shortest d [ (x, y) ], Dag.all_dipaths_between ~limit:3 d x y)
          with
          | Ok [ p ], [ only ] -> Dipath.equal p only
          | _ -> false)
        (Upp.routable_pairs d))

let suite =
  [
    ( "upp",
      [
        Alcotest.test_case "diamond violation" `Quick test_diamond_not_upp;
        Alcotest.test_case "line is UPP" `Quick test_line_upp;
        Alcotest.test_case "figure graphs" `Quick test_figures_upp;
        upp_matches_enumeration;
        violation_paths_are_real;
        generator_produces_upp;
        upp_one_cycle_generator;
        routable_pairs_match_reachability;
        unique_dipath_is_unique_on_upp;
      ] );
  ]
