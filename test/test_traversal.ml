(* Tests for traversals: BFS, topological order, cycles, reachability. *)

open Helpers
open Wl_digraph
module Prng = Wl_util.Prng
module Bitset = Wl_util.Bitset

let path_graph n = Digraph.of_arcs n (List.init (n - 1) (fun i -> (i, i + 1)))

let test_bfs_dist_on_path () =
  let g = path_graph 6 in
  let d = Traversal.bfs_dist g 0 in
  check "distances" true (d = [| 0; 1; 2; 3; 4; 5 |]);
  let d2 = Traversal.bfs_dist g 3 in
  check "unreachable is -1" true (d2 = [| -1; -1; -1; 0; 1; 2 |])

let topo_order_valid =
  qtest "topological order respects arcs" seed_gen (fun seed ->
      let g = gnp_dag seed 20 0.2 in
      match Traversal.topological_order g with
      | None -> false
      | Some order ->
        let pos = Array.make (Digraph.n_vertices g) 0 in
        List.iteri (fun i v -> pos.(v) <- i) order;
        List.length order = Digraph.n_vertices g
        && Digraph.fold_arcs (fun _ u v acc -> acc && pos.(u) < pos.(v)) g true)

let test_cyclic_detected () =
  let g = Digraph.of_arcs 3 [ (0, 1); (1, 2); (2, 0) ] in
  check "not acyclic" true (Traversal.topological_order g = None);
  match Traversal.find_directed_cycle g with
  | None -> Alcotest.fail "expected a directed cycle"
  | Some cycle ->
    let arr = Array.of_list cycle in
    let k = Array.length arr in
    check "cycle arcs exist" true
      (List.for_all
         (fun i -> Digraph.mem_arc g arr.(i) arr.((i + 1) mod k))
         (List.init k Fun.id))

let acyclic_no_cycle =
  qtest "DAGs have no directed cycle" seed_gen (fun seed ->
      let g = gnp_dag seed 15 0.3 in
      Traversal.topological_order g <> None && Traversal.find_directed_cycle g = None)

let reachability_consistent =
  qtest "reachability matrix agrees with DFS" seed_gen (fun seed ->
      let g = gnp_dag seed 14 0.2 in
      let matrix = Traversal.reachability_matrix g in
      List.for_all
        (fun v ->
          let seen = Traversal.reachable_from g v in
          let ok = ref true in
          Array.iteri
            (fun w r -> if Bitset.mem matrix.(v) w <> r then ok := false)
            seen;
          !ok)
        (Digraph.vertices g))

let reaching_is_reverse_reachable =
  qtest "reaching_to = reachable_from in reverse graph" seed_gen (fun seed ->
      let g = gnp_dag seed 14 0.2 in
      let r = Digraph.reverse g in
      List.for_all
        (fun v -> Traversal.reaching_to g v = Traversal.reachable_from r v)
        (Digraph.vertices g))

let test_components () =
  let g = Digraph.of_arcs 6 [ (0, 1); (1, 2); (3, 4) ] in
  let comp, n = Traversal.undirected_components g in
  check_int "three components" 3 n;
  check "0,1,2 together" true (comp.(0) = comp.(1) && comp.(1) = comp.(2));
  check "3,4 together" true (comp.(3) = comp.(4));
  check "5 alone" true (comp.(5) <> comp.(0) && comp.(5) <> comp.(3))

let test_undirected_cycle_on_forest () =
  let g = Digraph.of_arcs 5 [ (0, 1); (0, 2); (2, 3); (4, 3) ] in
  check "forest has no cycle" true (Traversal.undirected_cycle g = None)

(* The walk returned must chain correctly and close up. *)
let walk_is_closed g walk =
  match walk with
  | [] -> false
  | (a0, f0) :: _ ->
    let start = if f0 then Digraph.arc_src g a0 else Digraph.arc_dst g a0 in
    let rec follow v = function
      | [] -> v = start
      | (a, fwd) :: rest ->
        let u, w = Digraph.arc_endpoints g a in
        if fwd then u = v && follow w rest else w = v && follow u rest
    in
    follow start walk

let undirected_cycle_valid =
  qtest "undirected cycle is a closed walk of distinct arcs" seed_gen (fun seed ->
      let g = gnp_dag seed 12 0.3 in
      match Traversal.undirected_cycle g with
      | None ->
        (* Then the graph must be a forest: m <= n - components. *)
        let _, comps = Traversal.undirected_components g in
        Digraph.n_arcs g = Digraph.n_vertices g - comps
      | Some walk ->
        let arcs = List.map fst walk in
        walk_is_closed g walk && List.sort_uniq compare arcs = List.sort compare arcs)

let undirected_cycle_respects_filter =
  qtest "undirected cycle honors keep_arc" seed_gen (fun seed ->
      let g = gnp_dag seed 12 0.35 in
      let keep a = a mod 2 = 0 in
      match Traversal.undirected_cycle ~keep_arc:keep g with
      | None -> true
      | Some walk -> List.for_all (fun (a, _) -> keep a) walk)

let suite =
  [
    ( "traversal",
      [
        Alcotest.test_case "bfs dist on path" `Quick test_bfs_dist_on_path;
        topo_order_valid;
        Alcotest.test_case "directed cycle detection" `Quick test_cyclic_detected;
        acyclic_no_cycle;
        reachability_consistent;
        reaching_is_reverse_reachable;
        Alcotest.test_case "undirected components" `Quick test_components;
        Alcotest.test_case "forest has no undirected cycle" `Quick
          test_undirected_cycle_on_forest;
        undirected_cycle_valid;
        undirected_cycle_respects_filter;
      ] );
  ]
