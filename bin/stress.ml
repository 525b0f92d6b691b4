(* stress — large-scale randomized validation sweeps, in parallel.

   Each sweep (one of Wl_check.Oracle.sweeps) re-validates one of the
   paper's theorems over thousands of generated instances; failures print
   the offending seed so they can be replayed.  Sweeps run through
   Wl_check.Fuzz.run, chunk-parallel over OCaml 5 domains.

   Run with: dune exec bin/stress.exe -- [--seeds N] [--domains D]
               [--metrics] [--metrics-out PATH] [--replay SEED] [--shrink]
               [SWEEP..]
   Sweeps: thm1 thm2 thm6 thm6multi casec grooming all (default: all)

   Daemon load generator (wavelength-assignment-as-a-service):
     --daemon ADDR  replay an add/remove churn against a running `wl wld`
                    daemon instead of running sweeps; with
                    [--sessions N] [--client-threads T] [--ops K] [--seed S]
                    [--json] [--trace] [--metrics-out PATH]
                    publishes p50/p99 op latency and the warm-hit rate;
                    --trace attaches a deterministic trace context to every
                    request, so the daemon's flight rings and HDR exemplars
                    latch trace ids (pull them with `wl trace pull ADDR`)

   --metrics      collect and print solver-internals counters at the end
   --metrics-out PATH
                  also collect counters and write them as an OpenMetrics
                  text exposition to PATH ("-" for stdout) — the file that
                  `wl metrics-check` validates in CI
   --replay SEED  rerun one sweep on a single seed with tracing enabled
                  and print the span tree — for diagnosing a reported
                  failure, not just reproducing it (requires exactly one
                  SWEEP argument)
   --shrink       when a sweep fails, minimize its failures with the
                  Wl_check shrinker (Fuzz.run's default budget; without
                  the flag the budget is 0) and print the first one's
                  reduced .wl instance *)

module Oracle = Wl_check.Oracle
module Fuzz = Wl_check.Fuzz
module Shrink = Wl_check.Shrink
module Subject = Wl_check.Subject
module Parallel = Wl_util.Parallel
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Client = Wl_serve.Client
module Hdr = Wl_obs.Hdr
module Prng = Wl_util.Prng

(* --- daemon load generator (--daemon ADDR) ---------------------------------

   Replays a Traffic-style add/remove churn against a running wld daemon:
   [sessions] tenants multiplexed over [threads] client connections, each
   tenant an independent engine session server-side.  Publishes p50/p99 op
   latency and the warm-hit rate. *)

let daemon_fail fmt = Printf.ksprintf (fun m -> prerr_endline ("stress: " ^ m); exit 74) fmt

let or_daemon_fail ~ctx = function
  | Ok v -> v
  | Error e -> daemon_fail "%s: %s" ctx (Wl_core.Error.to_string e)

type daemon_result = {
  wall_s : float;
  total_ops : int;
  p50_ns : int;
  p99_ns : int;
  warm_hit_rate : float;
}

let run_daemon ~addr ~sessions ~threads ~ops ~seed ~json =
  let rng = Prng.create seed in
  (* a rooted tree has no internal cycle, so the engine's warm paths stay
     live — the steady state whose p50/p99 the arm is meant to track *)
  let dag = Wl_netgen.Generators.random_rooted_tree rng 48 in
  let reqs = Wl_netgen.Traffic.uniform rng dag 64 in
  let pool =
    match Wl_core.Routing.route_shortest dag reqs with
    | Ok [] | Error _ -> daemon_fail "could not route a churn pool"
    | Ok paths -> Array.of_list (List.map Wl_digraph.Dipath.vertices paths)
  in
  let base = Wl_core.Instance.make dag [] in
  let tenant k = Printf.sprintf "t%05d" k in
  let hdrs = Array.init threads (fun _ -> Hdr.create ()) in
  let warm = Array.make threads 0 and accepted = Array.make threads 0 in
  let errors = Array.make threads 0 in
  let worker i () =
    let client =
      or_daemon_fail ~ctx:addr (Client.connect ~json ~seed:(seed + (7919 * (i + 1))) addr)
    in
    let rng = Prng.create (seed + 7919 * (i + 1)) in
    let mine = ref [] in
    let k = ref i in
    while !k < sessions do
      let s =
        or_daemon_fail ~ctx:(tenant !k) (Client.open_session client ~tenant:(tenant !k) base)
      in
      mine := (s, ref []) :: !mine;
      k := !k + threads
    done;
    let mine = Array.of_list !mine in
    let timed f =
      let t0 = Wl_obs.Clock.now_ns () in
      let r = f () in
      let dt = Wl_obs.Clock.now_ns () - t0 in
      Hdr.record hdrs.(i) dt;
      r
    in
    (* round-robin over this thread's tenants so the whole population stays
       concurrently live on the daemon *)
    for _round = 1 to ops do
      Array.iter
        (fun (s, live) ->
          let n_live = List.length !live in
          if n_live = 0 || Prng.bernoulli rng 0.6 then (
            let vs = pool.(Prng.int rng (Array.length pool)) in
            match timed (fun () -> Client.add_path s vs) with
            | Ok pid -> live := pid :: !live
            | Error _ -> errors.(i) <- errors.(i) + 1)
          else
            let pid = List.nth !live (Prng.int rng n_live) in
            match timed (fun () -> Client.remove_path s pid) with
            | Ok () -> live := List.filter (fun x -> x <> pid) !live
            | Error _ -> errors.(i) <- errors.(i) + 1)
        mine
    done;
    Array.iter
      (fun (s, _) ->
        match Client.stats s with
        | Ok st ->
          (* warm-handled fraction, as Engine.hit_rate counts it *)
          warm.(i) <-
            warm.(i) + st.Wl_engine.Engine.warm_hits + st.Wl_engine.Engine.fresh_colors
            + st.Wl_engine.Engine.repairs + st.Wl_engine.Engine.warm_removes;
          accepted.(i) <- accepted.(i) + st.Wl_engine.Engine.ops
        | Error _ -> errors.(i) <- errors.(i) + 1)
      mine;
    Client.close client
  in
  let t0 = Unix.gettimeofday () in
  let ths = Array.init threads (fun i -> Thread.create (worker i) ()) in
  Array.iter Thread.join ths;
  let wall_s = Unix.gettimeofday () -. t0 in
  let merged = Hdr.create () in
  Array.iter (fun h -> Hdr.merge_into ~dst:merged h) hdrs;
  let total_ops = Hdr.count merged in
  let total_errors = Array.fold_left ( + ) 0 errors in
  if total_errors > 0 then daemon_fail "%d client operations failed" total_errors;
  let warm_total = Array.fold_left ( + ) 0 warm in
  let accepted_total = Array.fold_left ( + ) 0 accepted in
  {
    wall_s;
    total_ops;
    p50_ns = Hdr.quantile merged 0.5;
    p99_ns = Hdr.quantile merged 0.99;
    warm_hit_rate =
      (if accepted_total = 0 then 1.0
       else float_of_int warm_total /. float_of_int accepted_total);
  }

let daemon_mode ~addr ~sessions ~threads ~ops ~seed ~json ~trace ~metrics_out =
  Printf.printf
    "stress: daemon churn against %s: %d sessions, %d client threads, %d ops/session%s\n%!"
    addr sessions threads ops
    (if trace then " (traced)" else "");
  if metrics_out <> None then Metrics.set_enabled true;
  (* The discard sink enables tracing without accumulating events: the
     point is the context each request now carries on the wire (latched
     server-side into flight rings and exemplars), not client-side spans. *)
  if trace then Trace.set_sink Trace.discard;
  let r = run_daemon ~addr ~sessions ~threads ~ops ~seed ~json in
  if trace then Trace.clear ();
  Printf.printf
    "daemon     %6d sessions %8.2fs %8.0f op/s   p50 %s  p99 %s  warm %.0f%%\n%!"
    sessions r.wall_s
    (float_of_int r.total_ops /. r.wall_s)
    (Printf.sprintf "%dns" r.p50_ns)
    (Printf.sprintf "%dns" r.p99_ns)
    (100. *. r.warm_hit_rate);
  (match metrics_out with
  | None -> ()
  | Some path ->
    Metrics.set_enabled false;
    Cli_common.write_metrics ~progname:"stress"
      ~gauges:
        [
          ("stress.daemon.sessions", float_of_int sessions);
          ("stress.daemon.ops", float_of_int r.total_ops);
          ("stress.daemon.warm_hit_rate", r.warm_hit_rate);
        ]
      path);
  exit 0

let failures_of (summary : Fuzz.summary) =
  List.concat_map (fun r -> r.Fuzz.failures) summary.Fuzz.runs

let run_sweep ~seeds ~domains ~shrink (oracle : Oracle.t) =
  let t0 = Unix.gettimeofday () in
  let summary =
    Fuzz.run ~domains
      ?shrink_attempts:(if shrink then None else Some 0)
      ~seeds [ oracle ]
  in
  let dt = Unix.gettimeofday () -. t0 in
  let failures = failures_of summary in
  Printf.printf "%-10s %6d instances %8.2fs %8.0f/s   %s\n%!" oracle.Oracle.name
    summary.Fuzz.total_seeds dt
    (float_of_int summary.Fuzz.total_seeds /. dt)
    (match failures with
    | [] -> "all ok"
    | f :: _ ->
      Printf.sprintf "%d FAILURES (first: seed %d, %s)" (List.length failures)
        f.Fuzz.seed f.Fuzz.reason);
  (match failures with
  | f :: _ when shrink ->
    let shrunk = f.Fuzz.shrunk in
    let s = shrunk.Shrink.subject in
    Printf.printf
      "  seed %d shrunk to %d vertices / %d paths in %d attempts (%s)\n"
      f.Fuzz.seed (Subject.n_vertices s) (Subject.n_paths s)
      shrunk.Shrink.attempts shrunk.Shrink.reason;
    print_string (Subject.wl_string s)
  | _ -> ());
  failures = []

(* Rerun a single seed of a single sweep with full observability: the
   span tree shows where the time went and which phases ran; the counter
   table shows the solver internals.  Exit status mirrors the seed. *)
let replay ~seed (oracle : Oracle.t) =
  Printf.printf "replaying sweep %s, seed %d\n%!" oracle.Oracle.name seed;
  let sink = Trace.memory () in
  Trace.set_sink sink;
  Metrics.set_enabled true;
  let summary = Fuzz.run ~seed0:seed ~seeds:1 ~shrink_attempts:0 [ oracle ] in
  Trace.clear ();
  Metrics.set_enabled false;
  let events = Trace.events sink in
  Format.printf "@[<v>span tree:@,%a@,@,span summary:@,%a@,@,counters:@,%a@]@."
    Trace.pp_tree events Trace.pp_summary events Metrics.pp_summary ();
  match failures_of summary with
  | [] ->
    Printf.printf "seed %d: ok\n" seed;
    true
  | f :: _ ->
    Printf.printf "seed %d: FAILURE (%s)\n" seed f.Fuzz.reason;
    false

(* A malformed flag value is a usage error, reported like an unknown
   sweep: one line on stderr and exit 2. *)
let int_arg flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None ->
    Printf.eprintf "stress: %s expects an integer, got %S\n" flag v;
    exit 2

let () =
  let seeds = ref 2000 and domains = ref (Parallel.default_domains ()) in
  let metrics = ref false and replay_seed = ref None in
  let metrics_out = ref None in
  let shrink = ref false in
  let chosen = ref [] in
  let daemon = ref None in
  let sessions = ref 1000 and client_threads = ref 8 and ops = ref 32 in
  let seed = ref 1 and json = ref false in
  let trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--seeds" :: v :: rest ->
      seeds := int_arg "--seeds" v;
      parse rest
    | "--domains" :: v :: rest ->
      domains := int_arg "--domains" v;
      parse rest
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | "--metrics-out" :: v :: rest ->
      metrics_out := Some v;
      parse rest
    | "--replay" :: v :: rest ->
      replay_seed := Some (int_arg "--replay" v);
      parse rest
    | "--shrink" :: rest ->
      shrink := true;
      parse rest
    | "--daemon" :: v :: rest ->
      daemon := Some v;
      parse rest
    | "--sessions" :: v :: rest ->
      sessions := int_arg "--sessions" v;
      parse rest
    | "--client-threads" :: v :: rest ->
      client_threads := int_arg "--client-threads" v;
      parse rest
    | "--ops" :: v :: rest ->
      ops := int_arg "--ops" v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--trace" :: rest ->
      trace := true;
      parse rest
    | "all" :: rest -> parse rest
    | name :: rest ->
      (match List.find_opt (fun o -> o.Oracle.name = name) Oracle.sweeps with
      | Some oracle -> chosen := oracle :: !chosen
      | None ->
        prerr_endline ("stress: unknown sweep " ^ name);
        exit 2);
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !daemon with
  | Some addr ->
    daemon_mode ~addr ~sessions:!sessions ~threads:!client_threads ~ops:!ops
      ~seed:!seed ~json:!json ~trace:!trace ~metrics_out:!metrics_out
  | None -> ());
  let to_run = if !chosen = [] then Oracle.sweeps else List.rev !chosen in
  match !replay_seed with
  | Some seed ->
    let oracle =
      match to_run with
      | [ one ] -> one
      | _ ->
        prerr_endline "stress: --replay needs exactly one sweep name (e.g. --replay 42 thm1)";
        exit 2
    in
    exit (if replay ~seed oracle then 0 else 1)
  | None ->
    Printf.printf "stress: %d seeds per sweep, %d domains\n%!" !seeds !domains;
    if !metrics || !metrics_out <> None then Metrics.set_enabled true;
    let ok =
      List.for_all
        (fun oracle ->
          run_sweep ~seeds:!seeds ~domains:!domains ~shrink:!shrink oracle)
        to_run
    in
    if !metrics || !metrics_out <> None then begin
      Metrics.set_enabled false;
      if !metrics then Format.printf "@.metrics:@.%a@." Metrics.pp_summary ();
      match !metrics_out with
      | None -> ()
      | Some path ->
        Cli_common.write_metrics ~progname:"stress"
          ~gauges:
            [
              ("stress.seeds_per_sweep", float_of_int !seeds);
              ("stress.domains", float_of_int !domains);
            ]
          path
    end;
    exit (if ok then 0 else 1)
