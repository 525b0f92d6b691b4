module Classify = Wl_dag.Classify
module Coloring = Wl_conflict.Coloring
module Exact = Wl_conflict.Exact
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Clock = Wl_obs.Clock

type method_used =
  | Theorem_1
  | Theorem_6
  | Theorem_6_iterated
  | Exact_coloring
  | Heuristic

type lower_bound_source = From_load | From_clique | From_exact_chromatic

type report = {
  classification : Classify.t;
  pi : int;
  lower_bound : int;
  lower_bound_source : lower_bound_source;
  assignment : Assignment.t;
  n_wavelengths : int;
  method_used : method_used;
  optimal : bool;
}

let method_name = function
  | Theorem_1 -> "theorem-1"
  | Theorem_6 -> "theorem-6"
  | Theorem_6_iterated -> "theorem-6-iterated"
  | Exact_coloring -> "exact-coloring"
  | Heuristic -> "heuristic"

let lower_bound_source_name = function
  | From_load -> "load"
  | From_clique -> "clique"
  | From_exact_chromatic -> "exact-chromatic"

(* Dispatch observability: which arm fired, how long it took, how often it
   proved optimality.  One counter and one latency histogram per arm. *)
let c_solves = Metrics.counter "solver.solves"
let c_optimal = Metrics.counter "solver.optimal"

let arm_instruments m =
  let name = method_name m in
  (Metrics.counter ("solver.arm." ^ name), Metrics.latency ("solver.ns." ^ name))

let arms =
  List.map
    (fun m -> (m, arm_instruments m))
    [ Theorem_1; Theorem_6; Theorem_6_iterated; Exact_coloring; Heuristic ]

let finish classification pi lower source assignment method_used =
  let assignment = Assignment.normalize assignment in
  let n_wavelengths = Assignment.n_wavelengths assignment in
  {
    classification;
    pi;
    lower_bound = lower;
    lower_bound_source = source;
    assignment;
    n_wavelengths;
    method_used;
    optimal = n_wavelengths = lower;
  }

let solve_impl ?(exact_limit = 24) inst =
  let classification = Classify.classify (Instance.dag inst) in
  let pi = Load.pi inst in
  let small = Instance.n_paths inst <= exact_limit in
  if classification.Classify.n_internal_cycles = 0 then
    (* Theorem 1: optimal and equal to the load. *)
    finish classification pi pi From_load (Theorem1.color inst) Theorem_1
  else if classification.Classify.is_upp && classification.Classify.n_internal_cycles = 1
  then begin
    let assignment = Theorem6.color ~check:false inst in
    (* On a UPP-DAG the clique number equals pi (Property 3), so pi is the
       natural lower bound; a small instance gets the exact optimum instead. *)
    if small then
      let cg = Conflict_of.build inst in
      let chi = Exact.chromatic_number cg in
      let exact =
        match Exact.k_colorable cg chi with Some c -> c | None -> assert false
      in
      if chi < Assignment.n_wavelengths (Assignment.normalize assignment) then
        finish classification pi chi From_exact_chromatic
          (Assignment.of_conflict_coloring exact)
          Exact_coloring
      else finish classification pi chi From_exact_chromatic assignment Theorem_6
    else finish classification pi pi From_clique assignment Theorem_6
  end
  else if
    classification.Classify.is_upp
    && classification.Classify.n_internal_cycles >= 2
    && not small
  then begin
    (* The iterated Theorem 6 recursion; DSATUR may still beat it on dense
       conflict graphs, so keep the better of the two. *)
    let assignment = Theorem6_multi.color ~check:false inst in
    let cg = Conflict_of.build inst in
    let heuristic = Coloring.best_heuristic cg in
    if
      Assignment.n_wavelengths (Assignment.normalize heuristic)
      < Assignment.n_wavelengths (Assignment.normalize assignment)
    then
      finish classification pi pi From_clique
        (Assignment.of_conflict_coloring heuristic)
        Heuristic
    else finish classification pi pi From_clique assignment Theorem_6_iterated
  end
  else if small then begin
    let cg = Conflict_of.build inst in
    let chi = Exact.chromatic_number cg in
    let coloring =
      match Exact.k_colorable cg chi with Some c -> c | None -> assert false
    in
    finish classification pi chi From_exact_chromatic
      (Assignment.of_conflict_coloring coloring)
      Exact_coloring
  end
  else begin
    let cg = Conflict_of.build inst in
    let coloring = Coloring.best_heuristic cg in
    let clique = List.length (Wl_conflict.Clique.greedy_clique cg) in
    let lower = max pi clique in
    let source = if clique > pi then From_clique else From_load in
    finish classification pi lower source
      (Assignment.of_conflict_coloring coloring)
      Heuristic
  end

let record_solve report dt_ns =
  Metrics.incr c_solves;
  if report.optimal then Metrics.incr c_optimal;
  match List.assoc_opt report.method_used arms with
  | Some (c, h) ->
    Metrics.incr c;
    Metrics.observe_ns h dt_ns
  | None -> ()

let solve ?exact_limit inst =
  let observed = Metrics.enabled () in
  let t0 = if observed then Clock.now_ns () else 0 in
  let report =
    if Trace.enabled () then
      Trace.with_span
        ~args:[ ("paths", Trace.Int (Instance.n_paths inst)) ]
        "solver.solve"
        (fun () -> solve_impl ?exact_limit inst)
    else solve_impl ?exact_limit inst
  in
  if observed then record_solve report (Clock.now_ns () - t0);
  report

let solve_result ?exact_limit inst =
  match exact_limit with
  | Some l when l < 0 ->
    Error (Error.Precondition "Solver.solve: exact_limit must be non-negative")
  | _ -> (
    match solve ?exact_limit inst with
    | report -> Ok report
    | exception Invalid_argument msg -> Error (Error.Precondition msg))

let pp_report ?(stats = false) ppf r =
  if not stats then
    Format.fprintf ppf
      "@[<v>method: %s@,load pi: %d@,wavelengths: %d@,lower bound: %d@,optimal: \
       %b@,%a@]"
      (method_name r.method_used)
      r.pi r.n_wavelengths r.lower_bound r.optimal Classify.pp r.classification
  else
    Format.fprintf ppf
      "@[<v>method: %s@,load pi: %d@,wavelengths: %d@,lower bound: %d (from \
       %s)@,optimal: %b@,%a@,@,counters:@,%a@]"
      (method_name r.method_used)
      r.pi r.n_wavelengths r.lower_bound
      (lower_bound_source_name r.lower_bound_source)
      r.optimal Classify.pp r.classification Metrics.pp_summary ()
