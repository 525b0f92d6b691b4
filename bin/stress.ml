(* wl-stress — the daemon load generator.

   Replays an add/remove churn against a running `wl wld` daemon and
   publishes p50/p99 op latency and the warm-hit rate.  The theorem
   sweeps are `wl fuzz` checks (`wl fuzz --checks thm1,thm6 --seeds N`).

   Run with: dune exec bin/stress.exe -- --daemon ADDR
               [--sessions N] [--client-threads T] [--ops K] [--seed S]
               [--json] [--trace] [--metrics-out PATH]

   --json         send requests in the JSON encoding (default: text)
   --trace        attach a deterministic trace context to every request,
                  so the daemon's flight rings and HDR exemplars latch
                  trace ids (pull them with `wl trace pull ADDR`)
   --metrics-out PATH
                  collect client-side counters and write them as an
                  OpenMetrics text exposition to PATH ("-" for stdout),
                  the file `wl metrics-check` validates

   Without --daemon, or with a malformed flag, it prints a usage line and
   exits 2. *)

module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Client = Wl_serve.Client
module Hdr = Wl_obs.Hdr
module Prng = Wl_util.Prng

(* Replays a Traffic-style add/remove churn against a running wld daemon:
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

let usage () =
  prerr_endline
    "usage: wl-stress --daemon ADDR [--sessions N] [--client-threads T] \
     [--ops K] [--seed S] [--json] [--trace] [--metrics-out PATH]";
  exit 2

(* A malformed flag value is a usage error: one line on stderr and
   exit 2. *)
let int_arg flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None ->
    Printf.eprintf "stress: %s expects an integer, got %S\n" flag v;
    exit 2

let () =
  let metrics_out = ref None in
  let daemon = ref None in
  let sessions = ref 1000 and client_threads = ref 8 and ops = ref 32 in
  let seed = ref 1 and json = ref false in
  let trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--metrics-out" :: v :: rest ->
      metrics_out := Some v;
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
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !daemon with
  | Some addr ->
    daemon_mode ~addr ~sessions:!sessions ~threads:!client_threads ~ops:!ops
      ~seed:!seed ~json:!json ~trace:!trace ~metrics_out:!metrics_out
  | None -> usage ()
