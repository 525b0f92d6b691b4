(* Reproduction harness.

   The paper is a theory paper: its "evaluation" consists of the worked
   constructions of Figures 1, 3, 5, 9 and the quantitative claims of
   Theorems 1, 2, 6, 7.  This harness regenerates every one of them
   (tables E1-E12; the experiment ids match DESIGN.md), printing the
   paper's number next to the measured one.  A row that disagrees prints
   MISMATCH and makes the run exit 1.  Performance lives in `wl bench`.

   Run with: dune exec bench/main.exe            (same as tables)
             dune exec bench/main.exe -- tables *)

open Wl_core
module Figures = Wl_netgen.Figures
module Generators = Wl_netgen.Generators
module Path_gen = Wl_netgen.Path_gen
module Prng = Wl_util.Prng

let section id title =
  Printf.printf "\n== %s: %s ==\n" id title

let mismatches = ref 0

let verdict ok =
  if ok then "ok"
  else begin
    incr mismatches;
    "MISMATCH"
  end

(* --- E1: Figure 1 — unbounded w at load 2 ------------------------------- *)

let e1 () =
  section "E1" "Figure 1: pi = 2, w = k (gap unbounded in the load)";
  Printf.printf "%4s %12s %12s %10s\n" "k" "pi (paper 2)" "w (paper k)" "verdict";
  List.iter
    (fun k ->
      let inst = Figures.fig1 k in
      let pi = Load.pi inst in
      let w = (Solver.solve inst).Solver.n_wavelengths in
      Printf.printf "%4d %12d %12d %10s\n" k pi w (verdict (pi = 2 && w = k)))
    [ 2; 3; 4; 5; 6; 7; 8 ]

(* --- E2: Figure 3 -------------------------------------------------------- *)

let e2 () =
  section "E2" "Figure 3: one internal cycle, pi = 2, w = 3, conflict graph C5";
  let inst = Figures.fig3 () in
  let pi = Load.pi inst in
  let w = Bounds.chromatic_exact inst in
  let c5 = Wl_conflict.Graph_props.is_cycle_graph (Conflict_of.build inst) in
  Printf.printf "pi = %d (paper 2)   w = %d (paper 3)   conflict graph C5 = %b   %s\n"
    pi w c5
    (verdict (pi = 2 && w = 3 && c5))

(* --- E3: Theorem 1 ------------------------------------------------------- *)

let e3 () =
  section "E3" "Theorem 1: w = pi on DAGs without internal cycle (random sweep)";
  Printf.printf "%6s %6s %7s %6s %6s %8s\n" "n" "arcs" "paths" "pi" "w" "verdict";
  let rng = Prng.create 20260704 in
  List.iter
    (fun (n, k) ->
      let dag = Generators.gnp_no_internal_cycle rng n (8.0 /. float_of_int n) in
      let inst = Path_gen.random_instance rng dag k in
      let a = Theorem1.color inst in
      let w = Assignment.n_wavelengths (Assignment.normalize a) in
      let pi = Load.pi inst in
      Printf.printf "%6d %6d %7d %6d %6d %8s\n" n
        (Wl_dag.Dag.n_arcs dag) (Instance.n_paths inst) pi w
        (verdict (Assignment.is_valid inst a && w = pi)))
    [ (50, 40); (100, 80); (200, 160); (400, 320); (800, 640); (1600, 1280) ];
  (* Rooted trees, the paper's warm-up class. *)
  List.iter
    (fun n ->
      let dag = Generators.random_rooted_tree rng n in
      let inst = Path_gen.random_instance rng dag n in
      let a = Theorem1.color inst in
      let w = Assignment.n_wavelengths (Assignment.normalize a) in
      let pi = Load.pi inst in
      Printf.printf "%6d %6d %7d %6d %6d %8s  (rooted tree)\n" n (n - 1)
        (Instance.n_paths inst) pi w
        (verdict (Assignment.is_valid inst a && w = pi)))
    [ 100; 500; 2000 ]

(* --- E4: Theorem 2 / Figure 5 -------------------------------------------- *)

let e4 () =
  section "E4" "Theorem 2 / Figure 5: internal cycle => family with pi = 2, w = 3";
  Printf.printf "%4s %6s %6s %16s %10s\n" "k" "pi" "w" "conflict graph" "verdict";
  List.iter
    (fun k ->
      let inst = Figures.fig5 k in
      let pi = Load.pi inst in
      let w = Bounds.chromatic_exact inst in
      let cg = Conflict_of.build inst in
      let shape =
        if Wl_conflict.Graph_props.is_cycle_graph cg then
          Printf.sprintf "C%d" (Wl_conflict.Ugraph.n_vertices cg)
        else "not a cycle"
      in
      Printf.printf "%4d %6d %6d %16s %10s\n" k pi w shape
        (verdict (pi = 2 && w = 3 && shape = Printf.sprintf "C%d" ((2 * k) + 1))))
    [ 2; 3; 4; 5; 6 ];
  Printf.printf
    "\nReplication of the k = 2 family: pi = 2h, w = ceil(5h/2) (ratio -> 5/4)\n";
  Printf.printf "%4s %6s %14s %14s %8s %10s\n" "h" "pi" "w (paper)" "w (measured)"
    "ratio" "verdict";
  List.iter
    (fun h ->
      let inst = Theorem2.replicate (Figures.fig5 2) h in
      let paper = Replication.ceil_div (5 * h) 2 in
      let measured =
        if h <= 4 then Bounds.chromatic_exact inst
        else begin
          (* Exact coloring is exponential; at larger h certify instead:
             covering coloring (upper) + independence bound (lower). *)
          let upper =
            match
              Replication.covering_coloring ~n_base:5
                ~sets:(Figures.odd_cycle_independent_sets 2) ~h ~n_colors:paper
            with
            | Some a when Assignment.is_valid inst a -> paper
            | _ -> max_int
          in
          let lower = Bounds.independence_lower inst in
          if lower = upper then upper else -1
        end
      in
      Printf.printf "%4d %6d %14d %14d %8.3f %10s\n" h (2 * h) paper measured
        (float_of_int measured /. float_of_int (2 * h))
        (verdict (measured = paper)))
    [ 1; 2; 3; 4; 6; 8; 12 ]

(* --- E5: UPP structure --------------------------------------------------- *)

let e5 () =
  section "E5" "Property 3 + Corollary 5: Helly, clique = load, no K23 (UPP sweep)";
  let rng = Prng.create 5 in
  let trials = 60 in
  let helly = ref 0 and clique = ref 0 and k23 = ref 0 and intervals = ref 0 in
  for _ = 1 to trials do
    let dag = Generators.gnp_upp rng 16 0.25 in
    let inst = Path_gen.random_instance rng dag 12 in
    if Upp_theorems.helly_holds inst then incr helly;
    if Upp_theorems.clique_number_equals_load inst then incr clique;
    if Upp_theorems.no_k23 inst then incr k23;
    if Upp_theorems.pairwise_intersections_are_intervals inst then incr intervals
  done;
  Printf.printf
    "random UPP instances: %d/%d Helly, %d/%d clique=load, %d/%d no-K23, \
     %d/%d interval intersections   %s\n"
    !helly trials !clique trials !k23 trials !intervals trials
    (verdict (!helly = trials && !clique = trials && !k23 = trials && !intervals = trials));
  (* Negative control: figure 1's family breaks Helly and clique = load. *)
  let inst = Figures.fig1 5 in
  Printf.printf "figure-1 control: helly = %b, clique = load = %b (paper: both false)\n"
    (Upp_theorems.helly_holds inst)
    (Upp_theorems.clique_number_equals_load inst)

(* --- E6: Theorem 6 ------------------------------------------------------- *)

let e6 () =
  section "E6" "Theorem 6: w <= ceil(4 pi/3) on one-internal-cycle UPP-DAGs";
  Printf.printf "%6s %6s %8s %8s %22s %8s\n" "trial" "pi" "w-algo" "bound"
    "sigma cycle type" "verdict";
  let rng = Prng.create 99 in
  let shown = ref 0 in
  let all_ok = ref true in
  for trial = 1 to 60 do
    let dag = Generators.upp_one_internal_cycle rng () in
    let paths =
      (* distinct dipaths: the regime the paper's proof covers *)
      let seen = Hashtbl.create 16 in
      List.filter
        (fun p ->
          let key = Wl_digraph.Dipath.vertices p in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        (Path_gen.random_family rng dag 14)
    in
    let inst = Instance.make dag paths in
    let a, stats = Theorem6.color_with_stats inst in
    let ok =
      Assignment.is_valid inst a
      && stats.Theorem6.n_colors <= Theorem6.upper_bound stats.Theorem6.pi
    in
    if not ok then all_ok := false;
    if !shown < 10 || not ok then begin
      incr shown;
      let ct =
        String.concat ","
          (List.map
             (fun (l, m) -> Printf.sprintf "%d^%d" l m)
             stats.Theorem6.cycle_type)
      in
      Printf.printf "%6d %6d %8d %8d %22s %8s\n" trial stats.Theorem6.pi
        stats.Theorem6.n_colors
        (Theorem6.upper_bound stats.Theorem6.pi)
        ct (verdict ok)
    end
  done;
  Printf.printf "... 60 trials total: %s\n" (verdict !all_ok)

(* --- E7: Figure 9 / Theorem 7 -------------------------------------------- *)

let e7 () =
  section "E7"
    "Theorem 7 / Figure 9: Havet family attains w = ceil(8h/3) = ceil(4 pi/3)";
  Printf.printf "%4s %6s %12s %12s %12s %12s %8s\n" "h" "pi" "w (paper)"
    "lower(alpha)" "upper(cover)" "thm6-algo" "verdict";
  List.iter
    (fun h ->
      let inst = Figures.havet h in
      let paper = Replication.ceil_div (8 * h) 3 in
      let lower = Bounds.independence_lower inst in
      let upper =
        match
          Replication.covering_coloring ~n_base:8
            ~sets:(Figures.havet_base_independent_sets ())
            ~h ~n_colors:paper
        with
        | Some a when Assignment.is_valid inst a -> paper
        | _ -> max_int
      in
      let algo =
        let a, stats = Theorem6.color_with_stats inst in
        if Assignment.is_valid inst a then stats.Theorem6.n_colors else -1
      in
      Printf.printf "%4d %6d %12d %12d %12d %12d %8s\n" h (2 * h) paper lower
        upper algo
        (verdict (lower = paper && upper = paper)))
    [ 1; 2; 3; 4; 6; 8; 12 ];
  Printf.printf
    "\nNote: the w column is certified exactly (matching lower and upper\n\
     bounds).  The thm6-algo column shows what the paper's constructive\n\
     proof produces; for h > 1 it exceeds the bound because the proof's\n\
     Facts 1-2 do not cover replicated (multiset) families — see\n\
     EXPERIMENTS.md.  The theorem itself holds: w = ceil(4 pi/3) exactly.\n"

(* --- E8: iterated Theorem 6 (the paper's closing remark) ------------------ *)

let dedup paths =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun p ->
      let key = Wl_digraph.Dipath.vertices p in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    paths

let e8 () =
  section "E8"
    "Closing remark: C internal cycles => w within C nested ceil(4/3 .)";
  Printf.printf "%4s %8s %6s %8s %8s %8s\n" "C" "trials" "maxpi" "max w" "max bnd"
    "verdict";
  let rng = Prng.create 4242 in
  List.iter
    (fun c ->
      let trials = 25 in
      let ok = ref true and max_pi = ref 0 and max_w = ref 0 and max_b = ref 0 in
      for _ = 1 to trials do
        let dag = Generators.upp_internal_cycles rng ~cycles:c () in
        let inst = Instance.make dag (dedup (Path_gen.random_family rng dag 14)) in
        let a = Theorem6_multi.color ~check:false inst in
        let pi = Load.pi inst in
        let w = Assignment.n_wavelengths (Assignment.normalize a) in
        let bound = Theorem6_multi.upper_bound ~n_internal_cycles:c pi in
        if (not (Assignment.is_valid inst a)) || w > bound then ok := false;
        max_pi := max !max_pi pi;
        max_w := max !max_w w;
        max_b := max !max_b bound
      done;
      Printf.printf "%4d %8d %6d %8d %8d %8s\n" c trials !max_pi !max_w !max_b
        (verdict !ok))
    [ 1; 2; 3; 4 ]

(* --- E9: grooming (the paper's concluding problem) ------------------------ *)

let e9 () =
  section "E9"
    "Concluding problem: max requests satisfiable with w wavelengths";
  Printf.printf "%6s %4s %8s %8s %8s %10s\n" "family" "w" "greedy" "exact"
    "line-opt" "verdict";
  (* Line instances: both exact solvers agree; greedy may lag. *)
  let rng = Prng.create 31 in
  let line n =
    Wl_digraph.Digraph.of_arcs n (List.init (n - 1) (fun i -> (i, i + 1)))
  in
  List.iter
    (fun (k, w) ->
      let g = line 12 in
      let dag = Wl_dag.Dag.of_digraph_exn g in
      let paths =
        List.init k (fun _ ->
            let lo = Prng.int rng 11 in
            let hi = Prng.int_in rng (lo + 1) 11 in
            Wl_digraph.Dipath.make g (List.init (hi - lo + 1) (fun i -> lo + i)))
      in
      let inst = Instance.make dag paths in
      let greedy = (Grooming.greedy inst ~w).Grooming.size in
      let exact =
        match Grooming.exact inst ~w with
        | Some s -> s.Grooming.size
        | None -> -1
      in
      let line_opt =
        match Grooming.on_line inst ~w with
        | Some s -> s.Grooming.size
        | None -> -1
      in
      Printf.printf "%6d %4d %8d %8d %8d %10s\n" k w greedy exact line_opt
        (verdict (line_opt = exact && greedy <= exact)))
    [ (10, 1); (10, 2); (16, 2); (16, 3); (24, 3) ];
  (* Rooted trees — the case the paper singles out as "already a difficult
     one": no specialized exact solver exists here, so branch-and-bound
     carries the small sizes and greedy approximates beyond. *)
  Printf.printf
    "\nrooted trees (paper: \"appears already as a difficult one\"):\n";
  Printf.printf "%6s %4s %8s %8s %10s\n" "family" "w" "greedy" "exact" "gap";
  List.iter
    (fun (k, w) ->
      let dag = Generators.random_rooted_tree rng 20 in
      let inst = Path_gen.random_instance rng dag k in
      let greedy = (Grooming.greedy inst ~w).Grooming.size in
      let exact =
        match Grooming.exact inst ~w with
        | Some s -> s.Grooming.size
        | None -> -1
      in
      Printf.printf "%6d %4d %8d %8d %10d\n" k w greedy exact (exact - greedy))
    [ (12, 1); (12, 2); (18, 2); (18, 3) ];
  (* General no-internal-cycle DAGs: the Theorem 1 reduction colors every
     selected subfamily within w. *)
  let all_ok = ref true in
  for _ = 1 to 20 do
    let dag = Generators.gnp_no_internal_cycle rng 18 0.2 in
    let inst = Path_gen.random_instance rng dag 14 in
    let w = max 1 (Load.pi inst / 2) in
    match Grooming.satisfy inst ~w with
    | None -> all_ok := false
    | Some (_, assignment) ->
      if Assignment.n_wavelengths assignment > w then all_ok := false
  done;
  Printf.printf
    "\nselected subfamilies always w-colorable on cycle-free DAGs: %s\n"
    (verdict !all_ok)

(* --- E10: first-fit baseline ablation ------------------------------------ *)

let e10 () =
  section "E10"
    "Ablation: online first-fit vs the Theorem 1 constructive optimum";
  Printf.printf "%6s %6s %10s %10s %10s %12s\n" "arcs" "paths" "pi = opt"
    "first-fit" "worst-of-8" "overshoot";
  let rng = Prng.create 77 in
  (* Random lightpaths on a long line: the classic workload where online
     first-fit overshoots the (here optimal, by Theorem 1) load. *)
  List.iter
    (fun (n, k) ->
      let g =
        Wl_digraph.Digraph.of_arcs n (List.init (n - 1) (fun i -> (i, i + 1)))
      in
      let dag = Wl_dag.Dag.of_digraph_exn g in
      let paths =
        List.init k (fun _ ->
            let lo = Prng.int rng (n - 2) in
            let hi = min (n - 1) (Prng.int_in rng (lo + 1) (lo + 1 + Prng.int rng 8)) in
            Wl_digraph.Dipath.make g (List.init (hi - lo + 1) (fun i -> lo + i)))
      in
      let inst = Instance.make dag paths in
      let pi = Load.pi inst in
      let ff =
        Assignment.n_wavelengths (Assignment.normalize (Baselines.first_fit inst))
      in
      let worst = ref 0 in
      for _ = 1 to 8 do
        let candidate =
          Assignment.n_wavelengths
            (Assignment.normalize (Baselines.first_fit_random rng inst))
        in
        if candidate > !worst then worst := candidate
      done;
      Printf.printf "%6d %6d %10d %10d %10d %11.1f%%\n" (n - 1)
        (Instance.n_paths inst) pi ff !worst
        (100.0 *. float_of_int (!worst - pi) /. float_of_int (max 1 pi)))
    [ (30, 60); (60, 150); (120, 400); (240, 1000) ]

(* --- E11: the paper's conjecture ------------------------------------------ *)

let e11 () =
  section "E11"
    "Conjecture (Section 5): is w / pi unbounded with unlimited internal \
     cycles?";
  Printf.printf
    "empirical search: exact w / pi maximized over random families on\n\
     UPP-DAGs with C internal cycles (small instances, exact chromatic).\n";
  Printf.printf "%4s %8s %12s %12s %14s\n" "C" "trials" "max w/pi" "max w"
    "iterated bnd";
  let rng = Prng.create 1234 in
  List.iter
    (fun c ->
      let trials = 40 in
      let best = ref 0.0 and best_w = ref 0 and best_bound = ref 0 in
      for _ = 1 to trials do
        let dag = Generators.upp_internal_cycles rng ~cycles:c () in
        (* Theorem-2-flavored families maximize the gap at small load. *)
        let family =
          match Theorem2.build dag with
          | Some inst -> Instance.paths_list inst
          | None -> []
        in
        let extra = dedup (Path_gen.random_family rng dag 6) in
        let inst = Instance.make dag (family @ extra) in
        if Instance.n_paths inst > 0 && Instance.n_paths inst <= 18 then begin
          let pi = Load.pi inst in
          let w = Bounds.chromatic_exact inst in
          if pi > 0 then begin
            let ratio = float_of_int w /. float_of_int pi in
            if ratio > !best then begin
              best := ratio;
              best_w := w;
              best_bound := Bounds.theorem6_upper ~n_internal_cycles:c pi
            end
          end
        end
      done;
      Printf.printf "%4d %8d %12.3f %12d %14d\n" c trials !best !best_w
        !best_bound)
    [ 1; 2; 3; 4 ];
  Printf.printf
    "\nNo family observed above the iterated bound; the largest ratios come\n\
     from odd-cycle conflict graphs at pi = 2 (the ceiling effect), matching\n\
     the paper's intuition that new constructions — not replication — would\n\
     be needed to push the ratio with more cycles.  The conjecture remains\n\
     open.\n"

(* --- E12: wavelength conversion ------------------------------------------- *)

let e12 () =
  section "E12"
    "Wavelength conversion (ref [10]): converters buy back w = pi";
  Printf.printf "%10s %6s %10s %14s %12s %10s\n" "instance" "pi" "w (none)"
    "w (greedy-1)" "w (full)" "verdict";
  List.iter
    (fun (name, inst) ->
      let pi = Load.pi inst in
      let base = (Solver.solve inst).Solver.n_wavelengths in
      let _, greedy1 = Conversion.greedy_placement inst ~budget:1 in
      let full =
        Conversion.wavelengths inst
          ~converters:(Wl_digraph.Digraph.vertices (Instance.graph inst))
      in
      Printf.printf "%10s %6d %10d %14d %12d %10s\n" name pi base
        greedy1.Solver.n_wavelengths full.Solver.n_wavelengths
        (verdict (full.Solver.n_wavelengths = pi)))
    [
      ("fig3", Figures.fig3 ());
      ("fig5-k3", Figures.fig5 3);
      ("havet-h1", Figures.havet 1);
      ("havet-h2", Figures.havet 2);
    ];
  Printf.printf
    "\nFull conversion always collapses w to the load (segments are single\n\
     arcs: per-arc cliques), and on these gap examples a single\n\
     well-placed converter already closes the pi-vs-w gap.\n"

let run_tables () =
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "tables" ] ->
    run_tables ();
    print_endline "bench: done";
    if !mismatches > 0 then begin
      Printf.eprintf "bench: %d MISMATCH rows\n" !mismatches;
      exit 1
    end
  | _ ->
    prerr_endline "usage: main.exe [tables]";
    exit 2
