(* Tests for the dispatching solver. *)

open Helpers
open Wl_core
module Prng = Wl_util.Prng
module Figures = Wl_netgen.Figures
module Generators = Wl_netgen.Generators
module Path_gen = Wl_netgen.Path_gen

let test_dispatch_theorem1 () =
  let inst = random_nic_instance ~n:20 ~k:12 99 in
  let r = Solver.solve inst in
  check "method" true (r.Solver.method_used = Solver.Theorem_1);
  check "optimal" true r.Solver.optimal;
  check_int "w = pi" r.Solver.pi r.Solver.n_wavelengths;
  check "valid" true (Assignment.is_valid inst r.Solver.assignment)

let test_dispatch_theorem6 () =
  (* Large enough family that the exact solver is skipped. *)
  let inst = random_upp_one_cycle_instance ~k:40 ~distinct:true 123 in
  let r = Solver.solve inst in
  check "method" true (r.Solver.method_used = Solver.Theorem_6);
  check "within bound" true
    (r.Solver.n_wavelengths <= Theorem6.upper_bound r.Solver.pi);
  check "valid" true (Assignment.is_valid inst r.Solver.assignment)

(* One churn tenant's op stream replayed on an engine session: a UPP-DAG
   with one internal cycle whose live family repeats dipaths, drawn with
   replacement from 64 shortest routes, with a report after every third
   mutation.  On such families the Theorem 6 construction can exceed
   ceil(4 pi/3) (pi = 9, 13 colors after op 507), so the arm must fall back
   to a coloring within the bound. *)
let test_theorem6_repeated_dipaths () =
  let rng = Prng.create ((101 lsl 20) + 123) in
  let dag = Generators.upp_one_internal_cycle rng () in
  let pool =
    match Routing.route_shortest dag (Wl_netgen.Traffic.uniform rng dag 64) with
    | Ok ps -> Array.of_list (List.map Wl_digraph.Dipath.vertices ps)
    | Error _ -> Alcotest.fail "no routable pair"
  in
  let s = Wl_engine.Engine.create (Instance.make dag []) in
  let live = ref [||] and since_report = ref 0 in
  for op = 0 to 599 do
    if !since_report >= 3 then begin
      since_report := 0;
      let r = Wl_engine.Engine.report s in
      if r.Solver.n_wavelengths > Theorem6.upper_bound r.Solver.pi then
        Alcotest.failf "op %d: w = %d > ceil(4 * %d / 3)" op r.Solver.n_wavelengths
          r.Solver.pi;
      match Certificate.audit (Wl_engine.Engine.instance s) r with
      | [] -> ()
      | issue :: _ -> Alcotest.failf "op %d: %s" op issue
    end
    else begin
      incr since_report;
      let n = Array.length !live in
      if n = 0 || Prng.bernoulli rng (if n < 40 then 0.7 else 0.3) then begin
        match Wl_engine.Engine.add_path s pool.(Prng.int rng (Array.length pool)) with
        | Ok id -> live := Array.append !live [| id |]
        | Error _ -> Alcotest.fail "add_path rejected a routed dipath"
      end
      else begin
        (* remove the [q]-th live path, moving the last one into its slot *)
        let q = Prng.int rng n in
        let id = !live.(q) in
        !live.(q) <- !live.(n - 1);
        live := Array.sub !live 0 (n - 1);
        match Wl_engine.Engine.remove_path s id with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "remove_path rejected a live path"
      end
    end
  done

let test_dispatch_exact () =
  let inst = Figures.fig1 4 in
  let r = Solver.solve inst in
  check "method" true (r.Solver.method_used = Solver.Exact_coloring);
  check_int "w = k" 4 r.Solver.n_wavelengths;
  check "optimal" true r.Solver.optimal

let test_dispatch_heuristic () =
  let rng = Prng.create 5 in
  let dag = Generators.gnp_dag rng 30 0.2 in
  (* Only meaningful when the DAG has internal cycles and is big. *)
  let inst = Path_gen.random_instance rng dag 40 in
  let r = Solver.solve inst in
  check "valid" true (Assignment.is_valid inst r.Solver.assignment);
  check "bounds sound" true (r.Solver.lower_bound <= r.Solver.n_wavelengths)

let test_fig3_report () =
  let r = Solver.solve (Figures.fig3 ()) in
  check_int "w = 3" 3 r.Solver.n_wavelengths;
  check_int "pi = 2" 2 r.Solver.pi;
  check "optimal" true r.Solver.optimal;
  check_int "classified one cycle" 1
    r.Solver.classification.Wl_dag.Classify.n_internal_cycles

let solver_always_valid_and_sound =
  qtest "solver output valid; lower <= w <= heuristic-upper" seed_gen ~count:60
    (fun seed ->
      let rng = Prng.create seed in
      let dag =
        match seed mod 3 with
        | 0 -> Generators.gnp_dag rng 14 0.25
        | 1 -> Generators.gnp_no_internal_cycle rng 14 0.25
        | _ -> Generators.upp_one_internal_cycle rng ()
      in
      let inst = Path_gen.random_instance rng dag 10 in
      let r = Solver.solve inst in
      Assignment.is_valid inst r.Solver.assignment
      && r.Solver.lower_bound <= r.Solver.n_wavelengths
      && r.Solver.pi <= r.Solver.n_wavelengths
      && (r.Solver.optimal = (r.Solver.n_wavelengths = r.Solver.lower_bound)))

let solver_matches_exact_when_small =
  qtest "solver is optimal on small instances" seed_gen ~count:30 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.gnp_dag rng 12 0.3 in
      let inst = Path_gen.random_instance rng dag 8 in
      let r = Solver.solve inst in
      r.Solver.n_wavelengths = Bounds.chromatic_exact inst)

let test_method_names () =
  check "names" true
    (List.map Solver.method_name
       [ Solver.Theorem_1; Solver.Theorem_6; Solver.Exact_coloring; Solver.Heuristic ]
    = [ "theorem-1"; "theorem-6"; "exact-coloring"; "heuristic" ])

let suite =
  [
    ( "solver",
      [
        Alcotest.test_case "dispatches to theorem 1" `Quick test_dispatch_theorem1;
        Alcotest.test_case "dispatches to theorem 6" `Quick test_dispatch_theorem6;
        Alcotest.test_case "theorem 6 within bound on repeated dipaths" `Quick
          test_theorem6_repeated_dipaths;
        Alcotest.test_case "dispatches to exact" `Quick test_dispatch_exact;
        Alcotest.test_case "heuristic fallback" `Quick test_dispatch_heuristic;
        Alcotest.test_case "fig3 report" `Quick test_fig3_report;
        solver_always_valid_and_sound;
        solver_matches_exact_when_small;
        Alcotest.test_case "method names" `Quick test_method_names;
      ] );
  ]
