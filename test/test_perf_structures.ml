(* Properties pinning the flat-core rewrites to their reference semantics:
   the CSR instance index vs a naive per-arc list index, bucketed DSATUR vs
   the original selection-scan DSATUR, dynamic-chunking Parallel vs its
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

(* --- CSR index ----------------------------------------------------------- *)

let csr_matches_naive =
  qtest ~count:150 "CSR paths_through = naive list index" seed_gen (fun seed ->
      let inst = random_instance ~n:24 ~p:0.2 ~k:18 seed in
      let naive = naive_index inst in
      let g = Instance.graph inst in
      let ok = ref true in
      for a = 0 to Wl_digraph.Digraph.n_arcs g - 1 do
        if Instance.paths_through inst a <> naive.(a) then ok := false;
        if Instance.n_paths_through inst a <> List.length naive.(a) then
          ok := false;
        let via_iter = ref [] in
        Instance.paths_through_iter inst a (fun p -> via_iter := p :: !via_iter);
        if List.rev !via_iter <> naive.(a) then ok := false;
        let folded =
          Instance.paths_through_fold inst a (fun acc p -> p :: acc) []
        in
        if List.rev folded <> naive.(a) then ok := false
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
        if Instance.paths_through grown a <> Instance.paths_through bulk a then
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
        (fun d -> Parallel.map_array ~domains:d f input = expected)
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
         (Parallel.map_array ~domains:4
            (fun x -> if x = 37 then failwith "boom" else x)
            (Array.init 100 Fun.id));
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
      let folded =
        Ugraph.fold_edges (fun acc u v -> (u, v) :: acc) g []
      in
      List.rev !via_iter = Ugraph.edges g && List.rev folded = Ugraph.edges g)

let suite =
  [
    ( "perf-structures",
      [
        csr_matches_naive;
        add_paths_matches_bulk;
        dsatur_matches_reference;
        parallel_matches_sequential;
        Alcotest.test_case "parallel derived ops" `Quick parallel_derived_ops;
        Alcotest.test_case "parallel exception" `Quick parallel_exception;
        first_absent_matches_scan;
        iter_edges_matches_edges;
      ] );
  ]
