(* Route workloads: the offline RWA pipeline, one plan at a time.

   A plan is an instance text (the DAG) and a wlreq text (the requests),
   both generated from (seed, plan index) outside the timing.  The timed
   unit is what `wl route` does with them: parse both, [Routing.select]
   (k-shortest enumeration, bottleneck seed, local search, lower bound),
   build the instance and [Solver.solve] it.  Answers are checked outside
   the timing. *)

module Routing = Wl.Routing
module Solver = Wl.Solver
module Prng = Wl.Prng

type spec = {
  graph : Prng.t -> Wl.Dag.t;
  fixed_graph : bool;
      (** one graph, independent of the seed, under every plan's requests:
          for a graph family too slow to generate per plan, and whose
          per-graph cost varies too much for one graph per seed *)
  requests : int;
  w_is_load : bool;  (** no internal cycle: Theorem 1 makes w = max load *)
}

(* alternatives enumerated per request *)
let k = 4

type plan = { index : int; inst_text : string; req_text : string }

(* Plan [index] of a run: its graph, and uniform requests over it, both
   drawn from (seed, index) unless the graph is fixed. *)
type source = { spec : spec; seed : int; fixed : (Wl.Dag.t * string) option }

let text_of dag = Wl.Serial.to_string (Wl.Instance.make dag [])
let fixed_graph_seed = 20260808

let source ~seed spec =
  let fixed =
    if spec.fixed_graph then
      let dag = spec.graph (Prng.create fixed_graph_seed) in
      Some (dag, text_of dag)
    else None
  in
  { spec; seed; fixed }

let make_plan src index =
  let rng = Prng.create ((src.seed lsl 20) + index) in
  let dag, inst_text =
    match src.fixed with
    | Some fixed -> fixed
    | None ->
      let dag = src.spec.graph rng in
      (dag, text_of dag)
  in
  let requests = Wl.Traffic.uniform rng dag src.spec.requests in
  { index; inst_text; req_text = Routing.requests_to_string requests }

type answer = { sel : Routing.selection; inst : Wl.Instance.t; report : Solver.report }

let ( let* ) = Result.bind

let parse p =
  let* parsed = Wl.Serial.of_string p.inst_text in
  let* requests = Routing.requests_of_string p.req_text in
  Ok (Wl.Instance.dag parsed, requests)

let solve p =
  let* dag, requests = parse p in
  let* sel = Routing.select ~k dag requests in
  let inst = Routing.instance_of_selection dag sel in
  Ok { sel; inst; report = Solver.solve inst }

(* The paper's guarantees and the router's bracket, checked per plan. *)
let check_answer tally spec p = function
  | Error e ->
    Meter.check tally false (fun () ->
        Printf.sprintf "plan %d: %s" p.index (Wl.Error.to_string e))
  | Ok a ->
    let sel = a.sel and r = a.report in
    let w = r.Solver.n_wavelengths in
    Meter.check tally
      (Wl.Certificate.audit a.inst r = [])
      (fun () -> Printf.sprintf "plan %d: certificate audit failed" p.index);
    Meter.check tally
      (sel.Routing.lower_bound <= sel.Routing.max_load && sel.Routing.max_load <= w)
      (fun () ->
        Printf.sprintf "plan %d: lower bound %d <= max load %d <= w %d fails" p.index
          sel.Routing.lower_bound sel.Routing.max_load w);
    Meter.check tally (r.Solver.pi = sel.Routing.max_load) (fun () ->
        Printf.sprintf "plan %d: pi %d <> max load %d" p.index r.Solver.pi sel.Routing.max_load);
    if spec.w_is_load then
      Meter.check tally (w = sel.Routing.max_load) (fun () ->
          Printf.sprintf "plan %d: w %d <> max load %d without internal cycle" p.index w
            sel.Routing.max_load)

(* w over the routing-aware lower bound: how far the answer is from the
   best any routing could do, as far as the bound can tell. *)
let w_over_lb = function
  | Ok a when a.sel.Routing.lower_bound > 0 ->
    float_of_int a.report.Solver.n_wavelengths /. float_of_int a.sel.Routing.lower_bound
  | Ok _ | Error _ -> 1.

(* Plans [1, 2, ...] until [budget_ns] of wall time has passed (plan 0 is
   the cold one); returns each plan's index, [w_over_lb] and timed
   duration.  Inputs and answers are dropped once checked, so memory does
   not grow with speed. *)
let timed_plans tally src ~budget_ns =
  let spec = src.spec in
  let stop = Meter.now_ns () + budget_ns in
  let rec go i acc =
    if Meter.now_ns () >= stop then List.rev acc
    else begin
      let p = make_plan src i in
      let t0 = Meter.now_ns () in
      let a = solve p in
      let dt = Meter.now_ns () - t0 in
      check_answer tally spec p a;
      go (i + 1) ((i, w_over_lb a, dt) :: acc)
    end
  in
  go 1 []

let setups = 7
let f = float_of_int
let durations plans = Meter.dist (Array.of_list (List.map (fun (_, _, dt) -> dt) plans))

(* Set-up is a cold start of the planner as a user meets it: one `wl route`
   process on plan 0, run to completion. *)
let cold_routes (env : Meter.env) tally src =
  let spec = src.spec in
  let p = make_plan src 0 in
  let file ext = Filename.concat env.dir ("plan0." ^ ext) in
  Out_channel.with_open_bin (file "wl") (fun oc -> output_string oc p.inst_text);
  Out_channel.with_open_bin (file "wlreq") (fun oc -> output_string oc p.req_text);
  let once () =
    let t0 = Meter.now_ns () in
    let ok =
      Proc.run_wl ~wl:env.wl ~dir:env.dir
        [ "route"; file "wl"; file "wlreq"; "-k"; string_of_int k ]
    in
    Meter.check tally ok (fun () -> "wl route failed on plan 0");
    Meter.secs_of_ns (Meter.now_ns () - t0)
  in
  let times = List.init setups (fun _ -> once ()) in
  (* the in-process cold plan: warms the heap, left out of the samples *)
  check_answer tally spec p (solve p);
  times

let run (env : Meter.env) spec =
  let tally = Meter.tally () in
  Meter.reset_peak_rss ();
  let src = source ~seed:env.seed spec in
  let setup = cold_routes env tally src in
  let plans = timed_plans tally src ~budget_ns:(int_of_float (env.seconds *. 1e9)) in
  let times = Array.of_list (List.map (fun (_, _, dt) -> dt) plans) in
  let kept, kept_ns = Meter.quiet_half ~lat:times ~span:times in
  let d = Meter.dist kept in
  let n = Meter.count d in
  let lat name q = Meter.metric ~samples:n name "us" (f (Meter.quantile d q) /. 1e3) in
  let ratio =
    List.fold_left (fun acc (_, r, _) -> acc +. r) 0. plans /. f (max 1 (List.length plans))
  in
  ( tally,
    [
      Meter.metric ~samples:setups "setup_s" "s" (Meter.median_f setup);
      lat "lat_p50_us" 0.5;
      lat "lat_p90_us" 0.9;
      Meter.metric ~samples:n "throughput_per_s" "1/s" (f n /. Meter.secs_of_ns kept_ns);
      Meter.metric "peak_rss_mb" "MiB" (Meter.peak_rss_mb 0);
      Meter.metric ~samples:(List.length plans) "w_over_lb" "ratio" ratio;
    ] )

(* --- traced run ---------------------------------------------------------- *)

let span_names =
  [|
    "route.plan";
    "serial.parse";
    "routing.select";
    "solver.build";
    "solver.solve";
    "routing.kshortest";
    "routing.lower_bound";
  |]

let threads_named = [ (1, "planner") ]

type stage = { mutable ns : int; mutable minor_w : float }

let stage () = { ns = 0; minor_w = 0. }

(* Time [f] into [st] (and its allocation), recording a span. *)
let timed spans st ~name ~trace f =
  let w0 = Meter.minor_words () in
  let t0 = Meter.now_ns () in
  let r = f () in
  let t1 = Meter.now_ns () in
  st.minor_w <- st.minor_w +. (Meter.minor_words () -. w0);
  st.ns <- st.ns + (t1 - t0);
  Spans.record spans ~name ~tid:1 ~trace ~t0 ~t1;
  r

let traced (env : Meter.env) spec ~spans =
  let tally = Meter.tally () in
  let src = source ~seed:env.seed spec in
  let p0 = make_plan src 0 in
  check_answer tally spec p0 (solve p0);
  (* Untraced first: the reference plan mean and the plan set. *)
  let budget_ns = int_of_float (Float.max 0.5 (0.4 *. env.seconds) *. 1e9) in
  let plans = timed_plans tally src ~budget_ns in
  let untraced = durations plans in
  let parse_st = stage () and select_st = stage () and build_st = stage () in
  let solve_st = stage () and total_st = stage () in
  let ksp_st = stage () and bound_st = stage () in
  let swaps = ref 0 and at_bound = ref 0 and useful = ref 0 and gap = ref 0 in
  let alternatives = ref 0 and requests = ref 0 and optimal = ref 0 in
  List.iter
    (fun (index, _, _) ->
      let p = make_plan src index in
      let trace = index in
      let result =
        timed spans total_st ~name:0 ~trace (fun () ->
            match timed spans parse_st ~name:1 ~trace (fun () -> parse p) with
            | Error e -> Error e
            | Ok (dag, reqs) -> (
              match
                timed spans select_st ~name:2 ~trace (fun () -> Routing.select ~k dag reqs)
              with
              | Error e -> Error e
              | Ok sel ->
                let inst =
                  timed spans build_st ~name:3 ~trace (fun () ->
                      Routing.instance_of_selection dag sel)
                in
                let report = timed spans solve_st ~name:4 ~trace (fun () -> Solver.solve inst) in
                Ok (dag, reqs, { sel; inst; report })))
      in
      match result with
      | Error e -> check_answer tally spec p (Error e)
      | Ok (dag, reqs, a) ->
        check_answer tally spec p (Ok a);
        (* The stages [select] runs internally, timed on their own. *)
        timed spans ksp_st ~name:5 ~trace (fun () ->
            List.iter (fun (x, y) -> ignore (Routing.k_shortest ~k dag x y)) reqs);
        ignore (timed spans bound_st ~name:6 ~trace (fun () -> Routing.lower_bound dag reqs));
        let sel = a.sel in
        swaps := !swaps + sel.Routing.swaps;
        if sel.Routing.seed_load = sel.Routing.lower_bound then incr at_bound;
        if sel.Routing.max_load < sel.Routing.seed_load then incr useful;
        gap := !gap + (sel.Routing.max_load - sel.Routing.lower_bound);
        alternatives := !alternatives + sel.Routing.n_alternatives;
        requests := !requests + Array.length sel.Routing.requests;
        if a.report.Solver.optimal then incr optimal)
    plans;
  let n = List.length plans in
  let per_plan x = f x /. f (max 1 n) in
  let ms st = per_plan st.ns /. 1e6 in
  let untraced_ms = Meter.mean untraced /. 1e6 in
  let stages_ms = ms parse_st +. ms select_st +. ms build_st +. ms solve_st in
  ( tally,
    [
      Meter.metric ~samples:n "serial.parse_ms" "ms" (ms parse_st);
      Meter.metric ~samples:n "routing.select_ms" "ms" (ms select_st);
      Meter.metric ~samples:n "routing.kshortest_ms" "ms" (ms ksp_st);
      Meter.metric ~samples:n "routing.bound_ms" "ms" (ms bound_st);
      Meter.metric ~samples:n "routing.seed_search_ms" "ms"
        (ms select_st -. ms ksp_st -. ms bound_st);
      Meter.metric "routing.select_minor_w" "words" (select_st.minor_w /. f (max 1 n));
      Meter.metric "routing.seed_at_bound_share" "ratio" (per_plan !at_bound);
      Meter.metric "routing.swaps_per_plan" "count" (per_plan !swaps);
      Meter.metric "routing.search_useful_share" "ratio" (per_plan !useful);
      Meter.metric "routing.bound_gap_mean" "count" (per_plan !gap);
      Meter.metric "routing.alternatives_per_req" "count"
        (f !alternatives /. f (max 1 !requests));
      Meter.metric ~samples:n "solver.build_ms" "ms" (ms build_st);
      Meter.metric ~samples:n "solver.solve_ms" "ms" (ms solve_st);
      Meter.metric "solver.solve_minor_w" "words" (solve_st.minor_w /. f (max 1 n));
      Meter.metric "solver.optimal_share" "ratio" (per_plan !optimal);
      Meter.metric ~samples:n "route.plan_ms_mean" "ms" untraced_ms;
      Meter.metric "route.reconcile_ratio" "ratio" (stages_ms /. untraced_ms);
      Meter.metric ~samples:n "bench.trace_overhead_pct" "%"
        (100. *. (ms total_st -. untraced_ms) /. untraced_ms);
    ] )
