(* Tests for the validated DAG wrapper. *)

open Helpers
open Wl_digraph
module Dag = Wl_dag.Dag
module Prng = Wl_util.Prng
module Saturating = Wl_util.Saturating

let test_rejects_cycle () =
  let g = Digraph.of_arcs 3 [ (0, 1); (1, 2); (2, 0) ] in
  (match Dag.of_digraph g with
  | Ok _ -> Alcotest.fail "cycle accepted"
  | Error msg -> check "message mentions cycle" true (String.length msg > 0));
  Alcotest.check_raises "exn variant"
    (Invalid_argument "not a DAG: directed cycle v0 -> v1 -> v2") (fun () ->
      ignore (Dag.of_digraph_exn g))

let test_sources_sinks () =
  let g = Digraph.of_arcs 5 [ (0, 2); (1, 2); (2, 3); (2, 4) ] in
  let d = Dag.of_digraph_exn g in
  check "sources" true (Dag.sources d = [ 0; 1 ]);
  check "sinks" true (Dag.sinks d = [ 3; 4 ])

let test_longest_path () =
  let g = Digraph.of_arcs 6 [ (0, 1); (1, 2); (2, 3); (0, 4); (4, 5) ] in
  check_int "longest" 3 (Dag.longest_path_length (Dag.of_digraph_exn g));
  let empty = Digraph.of_arcs 3 [] in
  check_int "no arcs" 0 (Dag.longest_path_length (Dag.of_digraph_exn empty))

(* k diamonds in a row: 2^k dipaths end to end. *)
let test_count_paths () =
  let k = 5 in
  let g = Digraph.create () in
  Digraph.add_vertices g ((3 * k) + 1);
  for i = 0 to k - 1 do
    let base = 3 * i in
    ignore (Digraph.add_arc g base (base + 1));
    ignore (Digraph.add_arc g base (base + 2));
    ignore (Digraph.add_arc g (base + 1) (base + 3));
    ignore (Digraph.add_arc g (base + 2) (base + 3))
  done;
  let d = Dag.of_digraph_exn g in
  check_int "2^k dipaths" 32
    (Saturating.to_int (Dag.count_dipaths_from d 0).(3 * k))

let topo_position_consistent =
  qtest "topo positions strictly increase along arcs" seed_gen (fun seed ->
      let g = gnp_dag seed 18 0.2 in
      let d = Dag.of_digraph_exn g in
      Digraph.fold_arcs
        (fun _ u v acc -> acc && Dag.topo_position d u < Dag.topo_position d v)
        g true)

let counting_matches_enumeration =
  qtest "count_dipaths = |all_dipaths_between| on small DAGs" seed_gen
    (fun seed ->
      let g = gnp_dag seed 9 0.3 in
      let d = Dag.of_digraph_exn g in
      let ok = ref true in
      for x = 0 to 8 do
        for y = 0 to 8 do
          if x <> y then begin
            let counted = Saturating.to_int (Dag.count_dipaths_from d x).(y) in
            let listed = List.length (Dag.all_dipaths_between ~limit:10_000 d x y) in
            if counted <> listed then ok := false
          end
        done
      done;
      !ok)

(* The Theorem 1 peeling invariant: scanning arcs_by_tail_topo, every
   in-arc of an arc's tail appears strictly earlier. *)
let peeling_invariant =
  qtest "arcs_by_tail_topo: in-arcs of the tail come earlier" seed_gen
    (fun seed ->
      let g = gnp_dag seed 15 0.3 in
      let d = Dag.of_digraph_exn g in
      let order = Dag.arcs_by_tail_topo d in
      let index = Array.make (Digraph.n_arcs g) 0 in
      Array.iteri (fun i a -> index.(a) <- i) order;
      Array.for_all
        (fun a ->
          let tail = Digraph.arc_src g a in
          let ok = ref true in
          Digraph.iter_pred
            (fun u ->
              let b = Option.get (Digraph.find_arc g u tail) in
              if index.(b) >= index.(a) then ok := false)
            g tail;
          !ok)
        order)

let suite =
  [
    ( "dag",
      [
        Alcotest.test_case "rejects directed cycles" `Quick test_rejects_cycle;
        Alcotest.test_case "sources and sinks" `Quick test_sources_sinks;
        Alcotest.test_case "longest path" `Quick test_longest_path;
        Alcotest.test_case "path counting (diamond chain)" `Quick test_count_paths;
        topo_position_consistent;
        counting_matches_enumeration;
        peeling_invariant;
      ] );
  ]
