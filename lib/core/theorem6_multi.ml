module Internal_cycle = Wl_dag.Internal_cycle
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace

let c_solves = Metrics.counter "thm6multi.solves"
let h_depth = Metrics.histogram "thm6multi.recursion_depth"

let color ?(check = true) inst =
  if check then Theorem6.check_hypotheses ~exact_one:false (Instance.dag inst);
  Metrics.incr c_solves;
  let splits = ref 0 in
  let rec solve inst =
    if Internal_cycle.count_independent (Instance.dag inst) = 0 then
      Theorem1.color inst
    else begin
      incr splits;
      fst (Theorem6.split_and_glue ~subcolor:solve inst)
    end
  in
  let assignment = Trace.with_span "thm6multi.color" (fun () -> solve inst) in
  Metrics.observe h_depth !splits;
  assignment

let upper_bound = Bounds.theorem6_upper
