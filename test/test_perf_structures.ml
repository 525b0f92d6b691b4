(* Properties pinning the flat-core rewrites to their reference semantics:
   the CSR instance index vs a naive per-arc list index, bucketed DSATUR vs
   the original selection-scan DSATUR, the counted-degree greedy heuristics
   vs their popcount originals, dynamic-chunking Parallel vs its
   sequential meaning, and the bitset/ugraph iteration helpers. *)

open Helpers
module Bitset = Wl_util.Bitset
module Parallel = Wl_util.Parallel
module Prng = Wl_util.Prng
module Ugraph = Wl_conflict.Ugraph
module Coloring = Wl_conflict.Coloring
module Dipath = Wl_digraph.Dipath
module Instance = Wl_core.Instance

(* --- Reference implementations ------------------------------------------ *)

(* Naive per-arc index: exactly what the CSR replaced. *)
let naive_index inst =
  let g = Instance.graph inst in
  let by_arc = Array.make (max 1 (Wl_digraph.Digraph.n_arcs g)) [] in
  for p = Instance.n_paths inst - 1 downto 0 do
    Array.iter
      (fun a -> by_arc.(a) <- p :: by_arc.(a))
      (Dipath.arc_array (Instance.path inst p))
  done;
  by_arc

(* The pre-rewrite DSATUR: O(n) selection scan with per-candidate popcount,
   saturation tracked as a bitset per vertex.  Kept verbatim as the oracle
   for the bucketed version. *)
let reference_dsatur g =
  let n = Ugraph.n_vertices g in
  let coloring = Array.make n (-1) in
  let sat = Array.init n (fun _ -> Bitset.create (max 1 n)) in
  let colored = Array.make n false in
  for _ = 1 to n do
    let best = ref (-1) in
    let best_key = ref (-1, -1) in
    for v = 0 to n - 1 do
      if not colored.(v) then begin
        let key = (Bitset.cardinal sat.(v), Ugraph.degree g v) in
        if !best = -1 || key > !best_key then begin
          best := v;
          best_key := key
        end
      end
    done;
    let v = !best in
    let c =
      let rec first i = if not (Bitset.mem sat.(v) i) then i else first (i + 1) in
      first 0
    in
    coloring.(v) <- c;
    colored.(v) <- true;
    List.iter
      (fun w -> if not colored.(w) then Bitset.add sat.(w) c)
      (Ugraph.neighbors g v)
  done;
  coloring

let n_colors coloring =
  Array.fold_left (fun acc c -> max acc (c + 1)) 0 coloring

(* The greedy heuristics before [Ugraph] counted degrees: a popcount per
   degree query, so two per sort comparison, and a fresh [used] array per
   vertex in first-fit.  Kept as the oracles for the counted versions. *)
let popcount_degree g v = Bitset.cardinal (Ugraph.neighbor_set g v)

let by_popcount_degree g =
  let order = Array.init (Ugraph.n_vertices g) Fun.id in
  Array.sort (fun u v -> compare (popcount_degree g v) (popcount_degree g u)) order;
  order

let reference_smallest_free g coloring v =
  let used = Array.make (popcount_degree g v + 1) false in
  Bitset.iter
    (fun w ->
      let c = coloring.(w) in
      if c >= 0 && c < Array.length used then used.(c) <- true)
    (Ugraph.neighbor_set g v);
  let rec first i = if not used.(i) then i else first (i + 1) in
  first 0

let reference_greedy g =
  let coloring = Array.make (Ugraph.n_vertices g) (-1) in
  Array.iter
    (fun v -> coloring.(v) <- reference_smallest_free g coloring v)
    (by_popcount_degree g);
  coloring

let reference_best_heuristic g =
  let a = reference_greedy g and b = reference_dsatur g in
  if n_colors a <= n_colors b then a else b

let reference_greedy_clique g =
  let clique = ref [] in
  Array.iter
    (fun v ->
      if List.for_all (fun u -> Ugraph.mem_edge g u v) !clique then
        clique := v :: !clique)
    (by_popcount_degree g);
  List.sort compare !clique

(* --- CSR index ----------------------------------------------------------- *)

let csr_matches_naive =
  qtest ~count:150 "CSR paths_through = naive list index" seed_gen (fun seed ->
      let inst = random_instance ~n:24 ~p:0.2 ~k:18 seed in
      let naive = naive_index inst in
      let g = Instance.graph inst in
      let ok = ref true in
      for a = 0 to Wl_digraph.Digraph.n_arcs g - 1 do
        if Instance.n_paths_through inst a <> List.length naive.(a) then
          ok := false;
        if paths_through inst a <> naive.(a) then ok := false
      done;
      !ok)

let add_paths_matches_bulk =
  qtest ~count:100 "add_paths = building the union at once" seed_gen
    (fun seed ->
      let inst = random_instance ~n:20 ~p:0.2 ~k:12 seed in
      let rng = Prng.create (seed + 1) in
      let extra =
        Wl_netgen.Path_gen.random_family rng (Instance.dag inst) 7
      in
      let grown = Instance.add_paths inst extra in
      let bulk =
        Instance.make (Instance.dag inst)
          (Array.to_list (Instance.paths inst) @ extra)
      in
      let g = Instance.graph inst in
      let ok = ref (Instance.n_paths grown = Instance.n_paths bulk) in
      for a = 0 to Wl_digraph.Digraph.n_arcs g - 1 do
        if paths_through grown a <> paths_through bulk a then
          ok := false
      done;
      !ok)

(* --- Bucketed DSATUR ----------------------------------------------------- *)

let dsatur_matches_reference =
  qtest ~count:200 "bucketed DSATUR = reference DSATUR" seed_gen (fun seed ->
      let n = 1 + (seed mod 40) in
      let p = 0.05 +. (0.9 *. float_of_int (seed mod 7) /. 7.0) in
      let g = random_ugraph seed n p in
      let fast = Coloring.dsatur g in
      let slow = reference_dsatur g in
      Coloring.is_valid g fast
      && fast = slow
      && n_colors fast = n_colors slow)

(* --- Counted degrees ------------------------------------------------------ *)

let heuristics_match g =
  Coloring.best_heuristic g = reference_best_heuristic g
  && Wl_conflict.Clique.greedy_clique g = reference_greedy_clique g

let greedy_matches_reference =
  qtest ~count:200 "best_heuristic and greedy_clique = popcount references"
    seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int rng 81 in
      let p = 0.1 +. (0.1 *. float_of_int (Prng.int rng 9)) in
      heuristics_match (random_ugraph seed n p))

(* The conflict graphs the route-backbone plans color: dense, with many
   equal degrees, so the sort's tie order shows. *)
let greedy_matches_reference_on_backbones =
  qtest ~count:40 "backbone conflict graphs: greedy heuristics = references"
    seed_gen (fun seed ->
      let rng = Prng.create seed in
      let dag =
        Wl_netgen.Generators.backbone rng ~pops:(3 + Prng.int rng 3)
          ~levels:(4 + Prng.int rng 4)
      in
      let requests = Wl_netgen.Traffic.uniform rng dag (20 + Prng.int rng 60) in
      requests = []
      ||
      match Wl_core.Routing.select ~k:4 dag requests with
      | Error _ -> false
      | Ok sel ->
        heuristics_match
          (Wl_core.Conflict_of.build (Wl_core.Routing.instance_of_selection dag sel)))

let degrees_consistent g =
  let n = Ugraph.n_vertices g in
  let sum = ref 0 and ok = ref true in
  for v = 0 to n - 1 do
    let d = Ugraph.degree g v in
    if d <> popcount_degree g v then ok := false;
    sum := !sum + d
  done;
  !ok && 2 * Ugraph.n_edges g = !sum

(* Random insertions, a third of them repeats of an edge already in (in
   either orientation), which must leave every count unchanged. *)
let degree_counts_edges =
  qtest ~count:150 "Ugraph.degree = popcount, n_edges = half the degrees"
    seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 60 in
      let g = Ugraph.create n in
      let added = ref [] in
      for _ = 1 to Prng.int rng (3 * n) do
        match !added with
        | _ :: _ when Prng.int rng 3 = 0 ->
          let u, v = List.nth !added (Prng.int rng (List.length !added)) in
          if Prng.bool rng then Ugraph.add_edge g u v else Ugraph.add_edge g v u
        | _ ->
          let u = Prng.int rng n and v = Prng.int rng n in
          if u <> v then begin
            Ugraph.add_edge g u v;
            added := (u, v) :: !added
          end
      done;
      let c = Ugraph.complement g in
      degrees_consistent g && degrees_consistent c
      && Ugraph.n_edges g + Ugraph.n_edges c = n * (n - 1) / 2)

(* --- Parallel ------------------------------------------------------------ *)

let parallel_matches_sequential =
  qtest ~count:60 "Parallel.map_array deterministic across domain counts"
    seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int rng 200 in
      let input = Array.init n (fun i -> i + Prng.int rng 50) in
      let f x = (x * x) + 1 in
      let expected = Array.map f input in
      List.for_all
        (fun d -> Parallel.init ~domains:d n (fun i -> f input.(i)) = expected)
        [ 1; 2; 4; 8 ])

let parallel_derived_ops () =
  check_int "init" 100 (Array.length (Parallel.init ~domains:4 100 Fun.id));
  check "init values" true
    (Parallel.init ~domains:4 100 (fun i -> 2 * i)
    = Array.init 100 (fun i -> 2 * i))

let parallel_exception () =
  check "exception propagates" true
    (try
       ignore
         (Parallel.init ~domains:4 100 (fun x -> if x = 37 then failwith "boom" else x));
       false
     with Failure m -> m = "boom")

(* --- Bitset / Ugraph iteration helpers ----------------------------------- *)

let first_absent_matches_scan =
  qtest ~count:150 "Bitset.first_absent = linear scan" seed_gen (fun seed ->
      let rng = Prng.create seed in
      let cap = 1 + Prng.int rng 200 in
      let b = Bitset.create cap in
      for _ = 1 to Prng.int rng (2 * cap) do
        Bitset.add b (Prng.int rng cap)
      done;
      let scan =
        let rec go i = if i >= cap || not (Bitset.mem b i) then i else go (i + 1) in
        go 0
      in
      Bitset.first_absent b = scan)

let iter_edges_matches_edges =
  qtest ~count:100 "Ugraph.iter_edges enumerates the sorted edge list"
    seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = 1 + Prng.int rng 30 in
      let g = random_ugraph (seed + 3) n 0.3 in
      let via_iter = ref [] in
      Ugraph.iter_edges (fun u v -> via_iter := (u, v) :: !via_iter) g;
      let scan = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Ugraph.mem_edge g u v then scan := (u, v) :: !scan
        done
      done;
      List.rev !via_iter = List.rev !scan)

let suite =
  [
    ( "perf-structures",
      [
        csr_matches_naive;
        add_paths_matches_bulk;
        dsatur_matches_reference;
        greedy_matches_reference;
        greedy_matches_reference_on_backbones;
        degree_counts_edges;
        parallel_matches_sequential;
        Alcotest.test_case "parallel derived ops" `Quick parallel_derived_ops;
        Alcotest.test_case "parallel exception" `Quick parallel_exception;
        first_absent_matches_scan;
        iter_edges_matches_edges;
      ] );
  ]
