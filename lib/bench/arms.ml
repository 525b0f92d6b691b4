(* The benchmark arms `wl bench` runs and gates on.

   Workload shapes mirror bench/main.exe's perf engine (Theorem 1
   coloring, dense DSATUR, conflict-graph construction, load, a warm
   engine mutation) but at sizes chosen so a full gated run finishes in
   seconds: the gate wants many repeated measurements per commit more
   than it wants big instances.  Sizes are embedded in arm names, so the
   quick and full suites produce disjoint bench ids and the regression
   gate never compares a quick run against a full baseline. *)

open Wl_core
module Generators = Wl_netgen.Generators
module Path_gen = Wl_netgen.Path_gen
module Prng = Wl_util.Prng

type arm = {
  name : string;
  params : (string * int) list;
  run : unit -> unit;
  extras : unit -> (string * float) list;
}

let no_extras () = []

let make_nic_instance n k =
  let rng = Prng.create (20260704 + n) in
  let dag = Generators.gnp_no_internal_cycle rng n (8.0 /. float_of_int n) in
  Path_gen.random_instance rng dag k

let make_dense_ugraph n pct =
  let rng = Prng.create (77 + n) in
  let g = Wl_conflict.Ugraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.int rng 100 < pct then Wl_conflict.Ugraph.add_edge g u v
    done
  done;
  g

let thm1_arm n =
  let k = 3 * n / 4 in
  let inst = make_nic_instance n k in
  {
    name = Printf.sprintf "thm1/color/n=%d" n;
    params = [ ("n", n); ("paths", k) ];
    run = (fun () -> ignore (Theorem1.color inst));
    extras = no_extras;
  }

let dsatur_arm n =
  let pct = 50 in
  let g = make_dense_ugraph n pct in
  {
    name = Printf.sprintf "coloring/dsatur/dense-n=%d" n;
    params =
      [ ("n", n); ("edge_pct", pct); ("edges", Wl_conflict.Ugraph.n_edges g) ];
    run = (fun () -> ignore (Wl_conflict.Coloring.dsatur g));
    extras = no_extras;
  }

let conflict_arm k =
  let n = 60 in
  let inst =
    let rng = Prng.create 3 in
    let dag = Generators.gnp_dag rng n 0.12 in
    Path_gen.random_instance rng dag k
  in
  {
    name = Printf.sprintf "conflict/build/%d-paths" k;
    params = [ ("n", n); ("paths", k) ];
    run = (fun () -> ignore (Conflict_of.build inst));
    extras = no_extras;
  }

let load_arm n =
  let inst = make_nic_instance n (3 * n / 4) in
  {
    name = Printf.sprintf "load/pi/n=%d" n;
    params = [ ("n", n); ("paths", 3 * n / 4) ];
    run = (fun () -> ignore (Load.pi inst));
    extras = no_extras;
  }

(* One warm incremental mutation on a live session: add a path, query the
   report, remove it again.  The add/remove pair keeps the session
   periodic, so every timed iteration does identical work; the warm-hit
   rate of the whole session rides along as an extra.  The mutations go
   through the prebuilt-dipath hot entries (arc ids survive the
   session's graph copy), so the per-op cost is the warm coloring work
   plus the report, not vertex-list validation. *)
let engine_arm n =
  let module Engine = Wl_engine.Engine in
  let k = 3 * n / 4 in
  let inst = make_nic_instance n k in
  let p = List.hd (Instance.paths_list inst) in
  let session = Engine.create inst in
  ignore (Engine.report session);
  let step () =
    let pid = Engine.add_dipath_exn session p in
    ignore (Engine.report session);
    Engine.remove_path_exn session pid
  in
  {
    name = Printf.sprintf "engine/add_path/n=%d" n;
    params = [ ("n", n); ("paths", k) ];
    run = step;
    extras =
      (fun () ->
        [ ("warm_hit_rate", Engine.hit_rate (Engine.stats session)) ]);
  }

(* One full solve per step: add and remove a path on a session over a
   small gnp DAG with internal cycles, then report.  Without the
   Theorem-1 shape the session cannot stay warm, so each step's mutation
   leaves it dirty and the report re-solves the materialized instance
   from scratch.  The share of steps that solved rides along, so a
   session that stopped solving cannot pass for a fast one. *)
let full_solve_arm n =
  let module Engine = Wl_engine.Engine in
  let k = 40 in
  let inst =
    let rng = Prng.create 3 in
    let dag = Generators.gnp_dag rng n 0.12 in
    Path_gen.random_instance rng dag k
  in
  let p = List.hd (Instance.paths_list inst) in
  let session = Engine.create inst in
  ignore (Engine.report session);
  let steps = ref 0 in
  let solves0 = (Engine.stats session).Engine.full_solves in
  let step () =
    incr steps;
    Engine.remove_path_exn session (Engine.add_dipath_exn session p);
    ignore (Engine.report session)
  in
  {
    name = Printf.sprintf "engine/full_solve/n=%d" n;
    params = [ ("n", n); ("paths", k) ];
    run = step;
    extras =
      (fun () ->
        let solves = (Engine.stats session).Engine.full_solves - solves0 in
        [ ("solves_per_step", float_of_int solves /. float_of_int (max 1 !steps)) ]);
  }

(* The full routing stage (k-shortest enumeration, bottleneck seeding, local
   search) over a fixed uniform request set: the timed unit is one whole
   [Routing.select], the dominant cost of turning a demand matrix into a
   solvable instance.  The achieved bounds ride along as extras so the
   trajectory records not just how fast the stage is but how good its
   routing was (seed vs final vs lower bound). *)
let route_input n =
  let rng = Prng.create (20260808 + n) in
  let dag = Generators.gnp_no_internal_cycle rng n (8.0 /. float_of_int n) in
  (dag, Wl_netgen.Traffic.uniform rng dag (n / 8))

let route_arm n (dag, requests) =
  let last = ref None in
  {
    name = Printf.sprintf "route/n=%d" n;
    params = [ ("n", n); ("requests", List.length requests); ("k", 4) ];
    run =
      (fun () ->
        match Routing.select ~k:4 dag requests with
        | Ok sel -> last := Some sel
        | Error _ -> ());
    extras =
      (fun () ->
        match !last with
        | None -> []
        | Some sel ->
          [
            ("seed_load", float_of_int sel.Routing.seed_load);
            ("max_load", float_of_int sel.Routing.max_load);
            ("lower_bound", float_of_int sel.Routing.lower_bound);
          ]);
  }

(* Parsing as `wl route` does it: the route arm's instance text (its DAG
   written by [Serial.to_string]) and its request file.  The arm shares
   the route arm's input, whose DAG takes seconds to generate at n=1600. *)
let parse_arm n (dag, requests) =
  let inst_text = Serial.to_string (Instance.make dag []) in
  let req_text = Routing.requests_to_string requests in
  {
    name = Printf.sprintf "serial/parse/n=%d" n;
    params =
      [ ("n", n); ("arcs", Wl_dag.Dag.n_arcs dag); ("bytes", String.length inst_text) ];
    run =
      (fun () ->
        ignore (Serial.of_string inst_text);
        ignore (Routing.requests_of_string req_text));
    extras = no_extras;
  }

let suite ?(quick = false) () =
  let route_n = if quick then 120 else 1600 in
  let route = route_input route_n in
  if quick then
    [
      thm1_arm 120;
      dsatur_arm 120;
      conflict_arm 60;
      load_arm 120;
      engine_arm 120;
      full_solve_arm 60;
      route_arm route_n route;
      parse_arm route_n route;
    ]
  else
    [
      thm1_arm 400;
      dsatur_arm 300;
      conflict_arm 150;
      load_arm 400;
      engine_arm 400;
      full_solve_arm 60;
      route_arm route_n route;
      parse_arm route_n route;
    ]

let busy_wait ns =
  let t0 = Wl_obs.Clock.now_ns () in
  while Wl_obs.Clock.now_ns () - t0 < ns do
    ()
  done

let with_handicap ~ns name arms =
  match List.find_opt (fun a -> a.name = name) arms with
  | None ->
    invalid_arg
      (Printf.sprintf "Arms.with_handicap: no arm named %S (have: %s)" name
         (String.concat ", " (List.map (fun a -> a.name) arms)))
  | Some _ ->
    List.map
      (fun a ->
        if a.name = name then
          {
            a with
            run =
              (fun () ->
                a.run ();
                busy_wait ns);
          }
        else a)
      arms

let with_alloc_handicap ~words name arms =
  match List.find_opt (fun a -> a.name = name) arms with
  | None ->
    invalid_arg
      (Printf.sprintf "Arms.with_alloc_handicap: no arm named %S (have: %s)"
         name
         (String.concat ", " (List.map (fun a -> a.name) arms)))
  | Some _ ->
    List.map
      (fun a ->
        if a.name = name then
          {
            a with
            run =
              (fun () ->
                a.run ();
                (* Chunks of 63 floats (64 words with the header) stay
                   below Max_young_wosize, so the injection lands in the
                   minor heap where Gc.minor_words sees it — one big
                   array would go straight to the major heap and evade
                   the gate.  opaque_identity keeps the chunks from
                   being optimized away. *)
                let chunks = (max 1 words + 63) / 64 in
                for _ = 1 to chunks do
                  ignore (Sys.opaque_identity (Array.make 63 0.))
                done);
          }
        else a)
      arms
