(* Tests for the grooming solvers (the paper's concluding problem). *)

open Helpers
open Wl_core
open Wl_digraph
module Dag = Wl_dag.Dag
module Prng = Wl_util.Prng
module Generators = Wl_netgen.Generators
module Path_gen = Wl_netgen.Path_gen

(* Brute force: maximum subfamily with load <= w, by subset enumeration. *)
let brute inst ~w =
  let n = Instance.n_paths inst in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let chosen = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
    let size = Array.fold_left (fun a b -> if b then a + 1 else a) 0 chosen in
    let sub = List.filteri (fun i _ -> chosen.(i)) (Instance.paths_list inst) in
    if size > !best && Load.pi (Instance.make (Instance.dag inst) sub) <= w then best := size
  done;
  !best

let line_instance seed k n =
  let g = Digraph.of_arcs n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let dag = Dag.of_digraph_exn g in
  let rng = Prng.create seed in
  let paths =
    List.init k (fun _ ->
        let lo = Prng.int rng (n - 1) in
        let hi = Prng.int_in rng (lo + 1) (n - 1) in
        Dipath.make g (List.init (hi - lo + 1) (fun i -> lo + i)))
  in
  Instance.make dag paths

let exact_matches_brute =
  qtest "exact = brute force (tiny)" QCheck2.Gen.(pair seed_gen (int_range 0 4))
    (fun (seed, w) ->
      let inst = random_instance ~n:10 ~k:8 seed in
      match Grooming.exact inst ~w with
      | None -> false
      | Some s -> s.Grooming.size = brute inst ~w && s.Grooming.load <= w)

let greedy_feasible_and_below_exact =
  qtest "greedy feasible and never beats exact"
    QCheck2.Gen.(pair seed_gen (int_range 0 5))
    (fun (seed, w) ->
      let inst = random_instance ~n:12 ~k:10 seed in
      let gsel = Grooming.greedy inst ~w in
      gsel.Grooming.load <= max 0 w
      &&
      match Grooming.exact inst ~w with
      | None -> true
      | Some e -> gsel.Grooming.size <= e.Grooming.size)

let line_matches_brute =
  qtest "line solver = brute force" QCheck2.Gen.(pair seed_gen (int_range 1 3))
    (fun (seed, w) ->
      let inst = line_instance seed 9 8 in
      match Grooming.on_line inst ~w with
      | None -> false
      | Some s -> s.Grooming.size = brute inst ~w)

let line_beats_or_matches_greedy =
  qtest "line solver >= greedy" QCheck2.Gen.(pair seed_gen (int_range 1 4))
    (fun (seed, w) ->
      let inst = line_instance seed 20 12 in
      match Grooming.on_line inst ~w with
      | None -> false
      | Some s -> s.Grooming.size >= (Grooming.greedy inst ~w).Grooming.size)

let test_is_line () =
  let line = Dag.of_digraph_exn (Digraph.of_arcs 4 [ (0, 1); (1, 2); (2, 3) ]) in
  check "on_line accepts a line" true (Grooming.on_line (Instance.make line []) ~w:1 <> None);
  let tree = Dag.of_digraph_exn (Digraph.of_arcs 4 [ (0, 1); (0, 2); (2, 3) ]) in
  check "on_line rejects non-lines" true
    (Grooming.on_line (Instance.make tree []) ~w:1 = None)

let test_w_at_least_pi_keeps_all () =
  let inst = random_instance ~n:12 ~k:10 5 in
  let w = Load.pi inst in
  match Grooming.exact inst ~w with
  | Some s -> check_int "keeps everything" (Instance.n_paths inst) s.Grooming.size
  | None -> Alcotest.fail "exact failed"

let test_w_zero_keeps_none () =
  let inst = random_instance ~n:12 ~k:10 6 in
  let s = Grooming.greedy inst ~w:0 in
  check_int "keeps nothing" 0 s.Grooming.size

let monotone_in_w =
  qtest "optimal size is monotone in w" seed_gen ~count:30 (fun seed ->
      let inst = random_instance ~n:10 ~k:8 seed in
      let size w =
        match Grooming.exact inst ~w with
        | Some s -> s.Grooming.size
        | None -> -1
      in
      let rec check_mono w prev =
        if w > 4 then true
        else
          let s = size w in
          s >= prev && check_mono (w + 1) s
      in
      check_mono 0 0)

(* The paper's reduction: on a DAG without internal cycle the selected
   subfamily is always w-satisfiable. *)
let satisfy_within_w =
  qtest "satisfy stays within w on internal-cycle-free DAGs" seed_gen ~count:40
    (fun seed ->
      let inst = random_nic_instance ~n:16 ~k:12 seed in
      let w = max 1 (Load.pi inst / 2) in
      match Grooming.satisfy inst ~w with
      | None -> false
      | Some (sel, assignment) ->
        sel.Grooming.load <= w
        && Assignment.n_wavelengths assignment <= w
        && Array.length assignment = sel.Grooming.size)

let satisfied_assignment_is_valid =
  qtest "the returned assignment is valid for the subfamily" seed_gen ~count:30
    (fun seed ->
      let inst = random_nic_instance ~n:14 ~k:10 seed in
      let w = max 1 (Load.pi inst - 1) in
      match Grooming.satisfy inst ~w with
      | None -> false
      | Some (sel, assignment) ->
        let paths =
          List.filteri
            (fun i _ -> sel.Grooming.selected.(i))
            (Instance.paths_list inst)
        in
        let sub = Instance.make (Instance.dag inst) paths in
        Assignment.is_valid sub assignment)

let suite =
  [
    ( "grooming",
      [
        exact_matches_brute;
        greedy_feasible_and_below_exact;
        line_matches_brute;
        line_beats_or_matches_greedy;
        Alcotest.test_case "line detection" `Quick test_is_line;
        Alcotest.test_case "w >= pi keeps all" `Quick test_w_at_least_pi_keeps_all;
        Alcotest.test_case "w = 0 keeps none" `Quick test_w_zero_keeps_none;
        monotone_in_w;
        satisfy_within_w;
        satisfied_assignment_is_valid;
      ] );
  ]
