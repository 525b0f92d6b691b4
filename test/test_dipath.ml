(* Tests for dipaths: validation, composition, intersections. *)

open Helpers
open Wl_digraph
module Prng = Wl_util.Prng

let line n = Digraph.of_arcs n (List.init (n - 1) (fun i -> (i, i + 1)))

let test_make_validation () =
  let g = line 5 in
  Alcotest.check_raises "too short"
    (Invalid_argument "Dipath: needs at least two vertices") (fun () ->
      ignore (Dipath.make g [ 2 ]));
  Alcotest.check_raises "missing arc" (Invalid_argument "Dipath: missing arc v0 -> v2")
    (fun () -> ignore (Dipath.make g [ 0; 2 ]));
  let p = Dipath.make g [ 1; 2; 3 ] in
  check_int "n_arcs" 2 (Dipath.n_arcs p);
  check_int "src" 1 (Dipath.src p);
  check_int "dst" 3 (Dipath.dst p);
  check "vertices" true (Dipath.vertices p = [ 1; 2; 3 ])

let test_repeated_vertex () =
  let g = Digraph.of_arcs 3 [ (0, 1); (1, 2) ] in
  Alcotest.check_raises "repeat" (Invalid_argument "Dipath: repeated vertex")
    (fun () -> ignore (Dipath.make g [ 0; 1; 2; 0 ]))

let test_of_arcs () =
  let g = line 5 in
  let p = Dipath.of_arcs g [ 1; 2; 3 ] in
  check "vertices from arcs" true (Dipath.vertices p = [ 1; 2; 3; 4 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Dipath.of_arcs: empty")
    (fun () -> ignore (Dipath.of_arcs g []))

let test_membership () =
  let g = line 6 in
  let p = Dipath.make g [ 1; 2; 3; 4 ] in
  check "on the path" true (Dipath.vertex_index p 3 <> None);
  check "off the path" true (Dipath.vertex_index p 0 = None);
  check "vertex_index" true (Dipath.vertex_index p 3 = Some 2);
  (* arc ids on the line are (i, i+1) -> id i *)
  check "mem_arc" true (Dipath.mem_arc p 2);
  check "not mem_arc" false (Dipath.mem_arc p 0)

let test_sharing () =
  let g = line 8 in
  let p = Dipath.make g [ 0; 1; 2; 3; 4 ] in
  let q = Dipath.make g [ 2; 3; 4; 5 ] in
  let r = Dipath.make g [ 5; 6; 7 ] in
  check "shares" true (Dipath.shares_arc p q);
  check "no share" false (Dipath.shares_arc p r);
  check "shared arcs" true (List.filter (Dipath.mem_arc q) (Dipath.arcs p) = [ 2; 3 ]);
  check "interval" true (Dipath.intersection_interval g p q = Some (2, 4));
  check "no interval" true (Dipath.intersection_interval g p r = None)

let test_non_interval_intersection () =
  (* Two paths sharing two separated arcs: p = 0-1-2-3-4-5, q = 0-1,
     then around, then 4-5: build a graph with a bypass. *)
  let g =
    Digraph.of_arcs 7
      [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (1, 6); (6, 4) ]
  in
  let p = Dipath.make g [ 0; 1; 2; 3; 4; 5 ] in
  let q = Dipath.make g [ 0; 1; 6; 4; 5 ] in
  Alcotest.check_raises "two intervals"
    (Invalid_argument "Dipath.intersection_interval: not a single interval")
    (fun () -> ignore (Dipath.intersection_interval g p q))

let mem_arc_vs_list =
  qtest "mem_arc agrees with list membership" seed_gen (fun seed ->
      let rng = Prng.create seed in
      let dag = Wl_netgen.Generators.gnp_dag rng 14 0.3 in
      match Wl_netgen.Path_gen.random_family rng dag 1 with
      | [] | _ :: _ :: _ -> true
      | [ p ] ->
        let arcs = Dipath.arcs p in
        let g = Wl_dag.Dag.graph dag in
        List.for_all
          (fun a -> Dipath.mem_arc p a = List.mem a arcs)
          (List.init (Digraph.n_arcs g) Fun.id))

let shares_arc_symmetric =
  qtest "shares_arc is symmetric and matches shared_arcs" seed_gen (fun seed ->
      let rng = Prng.create seed in
      let dag = Wl_netgen.Generators.gnp_dag rng 14 0.3 in
      match Wl_netgen.Path_gen.random_family rng dag 2 with
      | [ p; q ] ->
        Dipath.shares_arc p q = Dipath.shares_arc q p
        && Dipath.shares_arc p q = List.exists (Dipath.mem_arc q) (Dipath.arcs p)
      | _ -> true)

let test_pp () =
  let g = line 3 in
  Digraph.set_label g 0 "x";
  let p = Dipath.make g [ 0; 1; 2 ] in
  check "to_string" true (Dipath.to_string g p = "x -> v1 -> v2")

let suite =
  [
    ( "dipath",
      [
        Alcotest.test_case "validation" `Quick test_make_validation;
        Alcotest.test_case "repeated vertex" `Quick test_repeated_vertex;
        Alcotest.test_case "of_arcs" `Quick test_of_arcs;
        Alcotest.test_case "membership" `Quick test_membership;
        Alcotest.test_case "arc sharing" `Quick test_sharing;
        Alcotest.test_case "non-interval intersection" `Quick
          test_non_interval_intersection;
        mem_arc_vs_list;
        shares_arc_symmetric;
        Alcotest.test_case "pretty printing" `Quick test_pp;
      ] );
  ]
