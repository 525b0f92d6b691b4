(* wl — command-line front end for the wavelength/load library.

   Subcommands:
     analyze FILE     classify the DAG and solve the instance
                      (--stats for solver counters, --trace OUT.json for a
                      chrome://tracing / Perfetto trace of the solve)
     color FILE       print one "path <index> wavelength <w>" line per dipath
     route FILE REQS  choose routes for a request file over the instance's
                      DAG (k-shortest + min-load selection), then solve
     generate KIND    emit a generated instance in the text format
     dot FILE         emit Graphviz DOT (wavelength-colored when --solve)
     top FILE         churn an engine session and watch health/latency live
     wld ADDR         serve engine sessions over the wlrpc/1 wire protocol
     trace-check FILE validate a trace file against the trace-event schema
     metrics-check F  validate an OpenMetrics exposition (from --metrics-out)

   The instance file format is documented in lib/core/serial.mli. *)

open Cmdliner
open Wl_core
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Prof = Wl_obs.Prof
module Store = Wl_obs.Store
module Runner = Wl_bench.Runner
module Report = Wl_bench.Report

(* Structured errors exit with their sysexits-style code ({!Error.exit_code});
   plain string errors (CLI usage problems) keep the historical exit 1. *)
let or_die_e ~ctx = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "wl: %s: %s\n" ctx (Error.to_string e);
    exit (Error.exit_code e)

let read_instance file = or_die_e ~ctx:file (Serial.read_file file)

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("wl: " ^ msg);
    exit 1

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file.")

(* --- analyze --- *)

let analyze file trace_file stats =
  let inst = read_instance file in
  let sink =
    match trace_file with
    | None -> None
    | Some _ ->
      let s = Trace.memory () in
      Trace.set_sink s;
      (* With a sink installed, the GC probe decorates every span with
         allocation/collection deltas and self-time. *)
      Prof.enable ();
      Some s
  in
  if stats then begin
    Metrics.set_enabled true;
    (* Profiling needs live spans; without a trace file the discard sink
       runs the probes while dropping the events themselves. *)
    if sink = None then Trace.set_sink Trace.discard;
    Prof.enable ()
  end;
  let report = Solver.solve inst in
  Prof.disable ();
  Trace.clear ();
  Metrics.set_enabled false;
  Format.printf "%a@." (Solver.pp_report ~stats) report;
  if stats && Prof.snapshot () <> [] then
    Format.printf "%a@." Prof.pp_summary ();
  Prof.reset ();
  match (trace_file, sink) with
  | Some out, Some sink ->
    let json = Trace.to_chrome (Trace.events sink) in
    let oc = open_out out in
    output_string oc json;
    close_out oc;
    Printf.eprintf "wl: wrote %d trace events to %s\n" (List.length (Trace.events sink)) out
  | _ -> ()

let analyze_cmd =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"OUT.json"
          ~doc:
            "Write a chrome trace-event JSON of the solve to $(docv) (open \
             in Perfetto or chrome://tracing).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Collect solver-internals counters during the solve and append \
             them (plus the lower-bound provenance) to the report.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Classify the DAG and solve the wavelength assignment.")
    Term.(const analyze $ file_arg $ trace $ stats)

(* --- color --- *)

let color file =
  let inst = read_instance file in
  let report = Solver.solve inst in
  Array.iteri
    (fun i w -> Printf.printf "path %d wavelength %d\n" i w)
    report.Solver.assignment;
  Printf.printf "# %d wavelengths, load %d, method %s\n"
    report.Solver.n_wavelengths report.Solver.pi
    (Solver.method_name report.Solver.method_used)

let color_cmd =
  Cmd.v
    (Cmd.info "color" ~doc:"Print the wavelength of every dipath.")
    Term.(const color $ file_arg)

(* --- route --- *)

let route file reqs_file k json =
  let module Jsonx = Wl_json.Jsonx in
  (* The DAG comes from an instance file; any dipaths it carries are
     ignored — routing chooses the family. *)
  let dag = Instance.dag (read_instance file) in
  let requests = or_die_e ~ctx:reqs_file (Routing.read_requests_file reqs_file) in
  let sel = or_die_e ~ctx:reqs_file (Routing.select ~k dag requests) in
  let inst = Routing.instance_of_selection dag sel in
  let report = Solver.solve inst in
  let g = Wl_dag.Dag.graph dag in
  if json then
    let route_obj i p =
      let x, y = sel.Routing.requests.(i) in
      Jsonx.Obj
        [
          ("src", Jsonx.Int x);
          ("dst", Jsonx.Int y);
          ("path", Jsonx.Arr (List.map (fun v -> Jsonx.Int v) (Wl_digraph.Dipath.vertices p)));
        ]
    in
    print_string
      (Jsonx.to_string ~pretty:true
         (Jsonx.Obj
            [
              ("format", Jsonx.Str "wl-route");
              ("version", Jsonx.Int 1);
              ("vertices", Jsonx.Int (Wl_digraph.Digraph.n_vertices g));
              ("arcs", Jsonx.Int (Wl_digraph.Digraph.n_arcs g));
              ("requests", Jsonx.Int (Array.length sel.Routing.requests));
              ("k", Jsonx.Int sel.Routing.k);
              ("alternatives", Jsonx.Int sel.Routing.n_alternatives);
              ("seed_load", Jsonx.Int sel.Routing.seed_load);
              ("max_load", Jsonx.Int sel.Routing.max_load);
              ("lower_bound", Jsonx.Int sel.Routing.lower_bound);
              ("swaps", Jsonx.Int sel.Routing.swaps);
              ("rounds", Jsonx.Int sel.Routing.rounds);
              ("wavelengths", Jsonx.Int report.Solver.n_wavelengths);
              ("method", Jsonx.Str (Solver.method_name report.Solver.method_used));
              ("optimal", Jsonx.Bool report.Solver.optimal);
              ( "routes",
                Jsonx.Arr (Array.to_list (Array.mapi route_obj sel.Routing.routes)) );
            ]))
  else begin
    Printf.printf "routed %d requests over %d vertices / %d arcs (k = %d)\n"
      (Array.length sel.Routing.requests)
      (Wl_digraph.Digraph.n_vertices g)
      (Wl_digraph.Digraph.n_arcs g)
      sel.Routing.k;
    Printf.printf
      "max arc load %d  (greedy seed %d, lower bound %d%s; %d swaps in %d rounds)\n"
      sel.Routing.max_load sel.Routing.seed_load sel.Routing.lower_bound
      (if sel.Routing.max_load = sel.Routing.lower_bound then
         ", routing-optimal"
       else "")
      sel.Routing.swaps sel.Routing.rounds;
    Printf.printf "wavelengths %d  method %s  optimal %b\n"
      report.Solver.n_wavelengths
      (Solver.method_name report.Solver.method_used)
      report.Solver.optimal;
    Array.iteri
      (fun i p ->
        let x, y = sel.Routing.requests.(i) in
        Printf.printf "route %d: (%d, %d) via%s\n" i x y
          (List.fold_left
             (fun acc v -> acc ^ " " ^ string_of_int v)
             ""
             (Wl_digraph.Dipath.vertices p)))
      sel.Routing.routes
  end

let route_cmd =
  let reqs_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"REQUESTS"
          ~doc:"Request file: optional 'wlreq 1' header, then 'req X Y' lines.")
  in
  let k =
    Arg.(
      value & opt int 8
      & info [ "k" ] ~docv:"K"
          ~doc:"Alternative routes enumerated per request (Yen's algorithm).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the chosen family and bounds as JSON.")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Route requests over the instance's DAG (k-shortest enumeration + \
          min-load selection), then solve the wavelength assignment.")
    Term.(const route $ file_arg $ reqs_arg $ k $ json)

(* --- generate --- *)

let generate kind param seed =
  let module F = Wl_netgen.Figures in
  let module G = Wl_netgen.Generators in
  let module PG = Wl_netgen.Path_gen in
  let rng = Wl_util.Prng.create seed in
  let inst =
    match kind with
    | "fig1" -> Ok (F.fig1 (max 2 param))
    | "fig3" -> Ok (F.fig3 ())
    | "fig5" -> Ok (F.fig5 (max 2 param))
    | "havet" -> Ok (F.havet (max 1 param))
    | "random" ->
      let dag = G.gnp_dag rng (max 4 param) 0.2 in
      Ok (PG.random_instance rng dag (2 * param))
    | "random-nic" ->
      let dag = G.gnp_no_internal_cycle rng (max 4 param) 0.2 in
      Ok (PG.random_instance rng dag (2 * param))
    | "random-upp1" ->
      let dag = G.upp_one_internal_cycle rng () in
      Ok (PG.random_instance rng dag (2 * param))
    | "random-uppc" ->
      let dag = G.upp_internal_cycles rng ~cycles:(max 1 param) () in
      Ok (PG.random_instance rng dag 12)
    | "tree" ->
      let dag = G.random_rooted_tree rng (max 2 param) in
      Ok (PG.random_instance rng dag (2 * param))
    | "backbone" ->
      let dag = G.backbone rng ~pops:(max 2 param) ~levels:5 in
      Ok (PG.random_instance rng dag (3 * param))
    | other -> Error (Printf.sprintf "unknown kind %S" other)
  in
  print_string (Serial.to_string (or_die inst))

let generate_cmd =
  let kind =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KIND"
          ~doc:
            "One of fig1, fig3, fig5, havet, random, random-nic (no internal \
             cycle), random-upp1 (UPP, one internal cycle), random-uppc \
             (UPP, PARAM internal cycles), tree (rooted tree), backbone.")
  in
  let param =
    Arg.(value & opt int 4 & info [ "k"; "param" ] ~docv:"N" ~doc:"Size parameter.")
  in
  let seed = Cli_common.seed_arg () in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit a generated instance in the text format.")
    Term.(const generate $ kind $ param $ seed)

(* --- dot --- *)

let dot file solve =
  let inst = read_instance file in
  let g = Instance.graph inst in
  if solve then begin
    let report = Solver.solve inst in
    let colored =
      List.mapi
        (fun i p -> (p, report.Solver.assignment.(i)))
        (Instance.paths_list inst)
    in
    print_string (Wl_digraph.Dot.of_colored_paths g colored)
  end
  else print_string (Wl_digraph.Dot.of_digraph g)

let dot_cmd =
  let solve =
    Arg.(value & flag & info [ "solve" ] ~doc:"Color the dipaths by wavelength.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz DOT for the instance's digraph.")
    Term.(const dot $ file_arg $ solve)

(* --- svg --- *)

let svg file solve =
  let inst = read_instance file in
  let g = Instance.graph inst in
  if solve then begin
    let report = Solver.solve inst in
    let colored =
      List.mapi
        (fun i p -> (p, report.Solver.assignment.(i)))
        (Instance.paths_list inst)
    in
    print_string (Wl_digraph.Svg.of_colored_paths g colored)
  end
  else print_string (Wl_digraph.Svg.of_digraph g)

let svg_cmd =
  let solve =
    Arg.(value & flag & info [ "solve" ] ~doc:"Color the dipaths by wavelength.")
  in
  Cmd.v
    (Cmd.info "svg" ~doc:"Emit a standalone SVG rendering of the instance.")
    Term.(const svg $ file_arg $ solve)

(* --- groom --- *)

let groom file w =
  let inst = read_instance file in
  match Grooming.satisfy inst ~w with
  | None ->
    prerr_endline "wl: no w-satisfiable selection found";
    exit 1
  | Some (sel, assignment) ->
    Printf.printf "# selected %d of %d dipaths, load %d, wavelengths <= %d\n"
      sel.Grooming.size (Instance.n_paths inst) sel.Grooming.load w;
    let slot = ref 0 in
    Array.iteri
      (fun i keep ->
        if keep then begin
          Printf.printf "path %d wavelength %d\n" i assignment.(!slot);
          incr slot
        end
        else Printf.printf "path %d rejected\n" i)
      sel.Grooming.selected

let groom_cmd =
  let w =
    Arg.(
      required
      & opt (some int) None
      & info [ "w"; "wavelengths" ] ~docv:"W" ~doc:"Available wavelengths.")
  in
  Cmd.v
    (Cmd.info "groom"
       ~doc:
         "Select a maximum subfamily satisfiable with W wavelengths (the \
          paper's concluding problem) and assign it.")
    Term.(const groom $ file_arg $ w)

(* --- verify --- *)

let verify file =
  let inst = read_instance file in
  let report = Solver.solve inst in
  match Certificate.audit inst report with
  | [] ->
    Printf.printf "ok: %d wavelengths (load %d, method %s) — report audited\n"
      report.Solver.n_wavelengths report.Solver.pi
      (Solver.method_name report.Solver.method_used)
  | issues ->
    List.iter (fun i -> Printf.printf "ISSUE: %s\n" i) issues;
    exit 1

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Solve the instance and audit the result with the independent \
          certificate checker.")
    Term.(const verify $ file_arg)

(* --- witness --- *)

let witness file =
  let inst = read_instance file in
  let dag = Instance.dag inst in
  let g = Instance.graph inst in
  (match Wl_dag.Internal_cycle.find_canonical dag with
  | None ->
    Printf.printf
      "no internal cycle: w = pi for every family on this DAG (Theorem 1)\n"
  | Some can ->
    Format.printf "%a@." (Wl_dag.Internal_cycle.pp_canonical dag) can;
    (match Theorem2.build dag with
    | Some family ->
      Printf.printf
        "Theorem 2 family (pi = 2, w = 3) witnessing the gap:\n";
      List.iter
        (fun p -> Printf.printf "  %s\n" (Wl_digraph.Dipath.to_string g p))
        (Instance.paths_list family)
    | None -> ()));
  match Wl_dag.Upp.find_violation dag with
  | None -> Printf.printf "the DAG is UPP\n"
  | Some v ->
    Printf.printf "not UPP: two dipaths from %s to %s:\n  %s\n  %s\n"
      (Wl_digraph.Digraph.label g v.Wl_dag.Upp.from_v)
      (Wl_digraph.Digraph.label g v.Wl_dag.Upp.to_v)
      (Wl_digraph.Dipath.to_string g v.Wl_dag.Upp.path1)
      (Wl_digraph.Dipath.to_string g v.Wl_dag.Upp.path2)

let witness_cmd =
  Cmd.v
    (Cmd.info "witness"
       ~doc:
         "Show the DAG's structural witnesses: an internal cycle (with the \
          Theorem 2 gap family) and/or a UPP violation.")
    Term.(const witness $ file_arg)

(* --- session --- *)

let install_flight_dump = Cli_common.install_flight_dump

let session file ops_file budget quiet flight_dump inject_audit_failure =
  let module Engine = Wl_engine.Engine in
  let module Script = Wl_engine.Script in
  let inst = read_instance file in
  Option.iter install_flight_dump flight_dump;
  let s = Engine.create ?repair_budget:budget inst in
  let r0 = Engine.report s in
  if not quiet then
    Printf.printf "initial: %d paths, %d wavelengths (load %d)\n"
      (Engine.n_live_paths s) r0.Solver.n_wavelengths r0.Solver.pi;
  let ops = or_die_e ~ctx:ops_file (Script.read_file ops_file) in
  let batch = Engine.submit s ops in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Ok (Engine.Path_added pid) ->
        if not quiet then Printf.printf "op %d: path added, id %d\n" i pid
      | Ok (Engine.Path_removed pid) ->
        if not quiet then Printf.printf "op %d: path %d removed\n" i pid
      | Ok (Engine.Arc_added a) ->
        if not quiet then Printf.printf "op %d: arc added, id %d\n" i a
      | Error e -> Printf.printf "op %d: REJECTED: %s\n" i (Error.to_string e))
    batch.Engine.outcomes;
  let r = batch.Engine.batch_report in
  let st = batch.Engine.batch_stats in
  Printf.printf "final: %d paths, %d wavelengths (load %d, method %s%s)\n"
    (Engine.n_live_paths s) r.Solver.n_wavelengths r.Solver.pi
    (Solver.method_name r.Solver.method_used)
    (if r.Solver.optimal then ", optimal" else "");
  Printf.printf
    "engine: %d ops (%d rejected), %d warm hits, %d fresh colors, %d \
     repairs (%d flips), %d shrinks, %d fallbacks, %d full solves, hit \
     rate %.2f\n"
    st.Engine.ops st.Engine.rejected st.Engine.warm_hits
    st.Engine.fresh_colors st.Engine.repairs st.Engine.repair_flips
    st.Engine.shrink_recolors st.Engine.fallbacks st.Engine.full_solves
    (Engine.hit_rate st);
  if not quiet then Format.printf "%a@." Engine.pp_health (Engine.health s);
  if inject_audit_failure then begin
    (* Break the internal load accounting on purpose, then audit: the
       failing audit must latch the flight recorder's auto-dump (proving
       the observability wiring end-to-end in CI). *)
    Engine.corrupt_for_testing s;
    match Engine.audit s with
    | Ok () ->
      prerr_endline "wl: --inject-audit-failure: audit unexpectedly passed";
      exit 1
    | Error msg ->
      Printf.eprintf "wl: injected audit failure detected: %s\n" msg;
      (* sysexits-style Precondition code, same as Error.Precondition *)
      exit 70
  end

let session_cmd =
  let ops_file =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"OPS"
          ~doc:
            "Op script: text ($(b,wlops 1) header; $(b,path)/$(b,remove)/\
             $(b,arc) directives) or the JSON mirror (wl-ops).")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "repair-budget" ] ~docv:"N"
          ~doc:
            "Max dipaths a single warm repair may recolor before falling \
             back to a full re-solve (0 disables warm repairs).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Only print the final report and engine stats.")
  in
  let flight_dump =
    Cli_common.flight_dump_arg
      ~doc:
        "Install a flight-recorder dump handler: when the session's \
         auto-dump latch fires (failed audit, rejected op) write the op \
         tail as $(docv).jsonl and $(docv).trace.json (the latter passes \
         $(b,wl trace-check))."
      ()
  in
  let inject_audit_failure =
    Arg.(
      value & flag
      & info [ "inject-audit-failure" ]
          ~doc:
            "After the script, deliberately corrupt the session's internal \
             accounting and run the audit; exits 70 once the failure is \
             detected (and dumped, with $(b,--flight-dump)).  CI hook.")
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:
         "Replay an op script against an incremental solving session and \
          report the final assignment, engine counters and session health \
          (op-latency SLO, warm-hit trend).")
    Term.(
      const session $ file_arg $ ops_file $ budget $ quiet $ flight_dump
      $ inject_audit_failure)

(* --- fuzz --- *)

let fuzz_oracles spec =
  let all = Wl_check.Oracle.all in
  if spec = "all" then Ok all
  else
    let names = String.split_on_char ',' spec |> List.map String.trim in
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        match Wl_check.Oracle.find name with
        | Some o -> resolve (o :: acc) rest
        | None ->
          Error
            (Printf.sprintf "unknown check %S (try: %s, selftest)" name
               (String.concat ", "
                  (List.map (fun o -> o.Wl_check.Oracle.name) all))))
    in
    resolve [] names

let fuzz checks seeds seed0 budget domains corpus json replay list_checks
    shrink_attempts =
  let module Oracle = Wl_check.Oracle in
  let module Fuzz = Wl_check.Fuzz in
  if list_checks then
    List.iter
      (fun o -> Printf.printf "%-12s %s\n" o.Oracle.name o.Oracle.doc)
      (Oracle.all @ [ Oracle.selftest ])
  else
    match replay with
    | Some dir -> (
      match Wl_check.Corpus.load dir with
      | Error msg ->
        Printf.eprintf "wl: %s: %s\n" dir msg;
        exit 74
      | Ok entries ->
        let failures =
          List.filter_map
            (fun e ->
              Option.map
                (fun reason -> (Filename.basename e.Wl_check.Corpus.wl_file, reason))
                (Wl_check.Corpus.replay e))
            entries
        in
        if failures = [] then
          Printf.printf "corpus ok: %d entries replayed\n" (List.length entries)
        else begin
          List.iter
            (fun (file, reason) -> Printf.printf "REGRESSION: %s: %s\n" file reason)
            failures;
          exit 1
        end)
    | None ->
      let oracles = or_die (fuzz_oracles checks) in
      let summary =
        Fuzz.run ?domains ~seed0 ?budget_s:budget ?shrink_attempts ~seeds
          oracles
      in
      (match corpus with
      | None -> ()
      | Some dir ->
        let written = Fuzz.write_corpus ~dir summary in
        List.iter (fun f -> Printf.eprintf "wl: wrote %s\n" f) written);
      if json then print_string (Fuzz.to_json ~pretty:true summary ^ "\n")
      else Format.printf "%a" Fuzz.pp summary;
      if summary.Fuzz.total_failures > 0 then exit 1

let fuzz_cmd =
  let checks =
    Arg.(
      value & opt string "all"
      & info [ "checks" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated oracle names, or $(b,all) for the full \
             differential set plus the lifted validation sweeps (see \
             $(b,--list)).")
  in
  let seeds =
    Arg.(
      value & opt int 100
      & info [ "seeds" ] ~docv:"N" ~doc:"Seeds to run per check.")
  in
  let seed0 =
    Arg.(value & opt int 0 & info [ "seed0" ] ~docv:"K" ~doc:"First seed.")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "time" ] ~docv:"SECS"
          ~doc:
            "Global wall-clock budget: stop starting new work after $(docv) \
             seconds (the CI smoke-run bound).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D" ~doc:"Worker domains for the seed sweep.")
  in
  let corpus =
    Arg.(
      value
      & opt (some dir) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Write every failure's shrunk reproducer into this corpus \
             directory as CHECK.sSEED.wl (plus .wlops when ops are \
             involved).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the machine summary (schema wl-fuzz/1, includes the \
             shrunk reproducers; byte-stable at a fixed seed range).")
  in
  let replay =
    Arg.(
      value
      & opt (some dir) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "Replay a regression corpus instead of fuzzing: every entry's \
             oracle must pass; exits 1 on any regression.")
  in
  let list_checks =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the available checks and exit.")
  in
  let shrink_attempts =
    Arg.(
      value
      & opt (some int) None
      & info [ "shrink-attempts" ] ~docv:"N"
          ~doc:"Max oracle re-runs per failure minimization (default 4000).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Property-based fuzzing: run differential oracles over seeded \
          random instances, shrink failures to minimal reproducers, and \
          maintain the regression corpus.")
    Term.(
      const fuzz $ checks $ seeds $ seed0 $ budget $ domains $ corpus $ json
      $ replay $ list_checks $ shrink_attempts)

(* --- bench --- *)

let parse_handicap ~flag ~unit spec =
  match String.rindex_opt spec ':' with
  | None ->
    Error (Printf.sprintf "--%s expects NAME:%s, got %S" flag unit spec)
  | Some i -> (
    let name = String.sub spec 0 i in
    let v = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt v with
    | Some v when v >= 0 -> Ok (name, v)
    | _ ->
      Error
        (Printf.sprintf "--%s %s: %s must be a non-negative integer" flag spec
           unit))

let load_history trajectory =
  if Sys.file_exists trajectory then
    or_die_e ~ctx:trajectory
      (Result.map_error (fun m -> Error.Io m) (Store.load trajectory))
  else []

let bench gate record trajectory runs quick threshold window note handicaps
    alloc_handicaps =
  let handicaps =
    List.map
      (fun h -> or_die (parse_handicap ~flag:"handicap" ~unit:"NS" h))
      handicaps
  in
  let alloc_handicaps =
    List.map
      (fun h ->
        or_die (parse_handicap ~flag:"alloc-handicap" ~unit:"WORDS" h))
      alloc_handicaps
  in
  Printf.printf "wl bench: %s suite, %d runs/arm%s\n%!"
    (if quick then "quick" else "full")
    runs
    (if handicaps = [] && alloc_handicaps = [] then ""
     else
       " (handicapped: "
       ^ String.concat ", "
           (List.map fst handicaps @ List.map fst alloc_handicaps)
       ^ ")");
  let entry =
    Runner.run_suite ~quick ~runs ~handicaps ~alloc_handicaps ?note
      ~on_point:(fun p ->
        Printf.printf "  %-34s %12s  ± %-10s cv %4.1f%%\n%!" p.Store.name
          (Report.human_ns p.Store.sample.Store.median_ns)
          (Report.human_ns p.Store.sample.Store.mad_ns)
          (100. *. p.Store.sample.Store.cv))
      ()
  in
  let history = load_history trajectory in
  if record then begin
    Store.append trajectory entry;
    Printf.printf "recorded rev %s @ %s -> %s (%d entries)\n" entry.Store.rev
      entry.Store.timestamp trajectory
      (List.length history + 1)
  end;
  if gate then
    if history = [] then
      if record then
        Printf.printf "gate: no prior baseline; this run starts the trajectory\n"
      else begin
        Printf.eprintf
          "wl: gate: no baseline in %s (record one with wl bench --record)\n"
          trajectory;
        exit 2
      end
    else begin
      let cmp = Store.compare ~window ~threshold_pct:threshold ~history entry in
      Format.printf "%a@." Store.pp_comparison cmp;
      if cmp.Store.regressions > 0 || cmp.Store.alloc_regressions > 0 then begin
        Printf.eprintf
          "wl: gate: %s detected (bless intentional changes with wl bench \
           --record)\n"
          (if cmp.Store.regressions > 0 then "regression"
           else "allocation regression");
        exit 1
      end
      else if cmp.Store.improvements > 0 then exit 3
    end

let bench_cmd =
  let gate =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Compare this run against the rolling baseline from the \
             trajectory.  Exits 0 when stable, 1 on a regression, 2 when \
             there is no baseline (unless $(b,--record) starts one), 3 on \
             an unexplained improvement.")
  in
  let record =
    Arg.(
      value & flag
      & info [ "record" ]
          ~doc:
            "Append this run to the trajectory, keyed by git rev — also how \
             an intentional perf change is blessed as the new baseline.")
  in
  let trajectory =
    Arg.(
      value
      & opt string "BENCH_trajectory.jsonl"
      & info [ "trajectory" ] ~docv:"FILE"
          ~doc:"Trajectory file (JSONL, schema wavelength-bench-core/3).")
  in
  let runs =
    Arg.(
      value & opt int 7
      & info [ "runs" ] ~docv:"N" ~doc:"Timed batches per arm (median/MAD over these).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Small instances under distinct bench names — for CI smoke runs; \
             never compared against the full suite.")
  in
  let threshold =
    Arg.(
      value & opt float 10.
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Gate tolerance floor: flag when the median moves more than \
             max($(docv)%% of baseline, 3 x MAD of the baseline window).")
  in
  let window =
    Arg.(
      value & opt int 5
      & info [ "window" ] ~docv:"K"
          ~doc:"Baseline = rolling median of the last $(docv) recorded entries.")
  in
  let note =
    Arg.(
      value
      & opt (some string) None
      & info [ "note" ] ~docv:"TEXT" ~doc:"Free-form note stored with the entry.")
  in
  let handicap =
    Arg.(
      value & opt_all string []
      & info [ "handicap" ] ~docv:"NAME:NS"
          ~doc:
            "Inject a busy-wait of NS nanoseconds into the named arm — a \
             synthetic regression for testing the gate end-to-end.")
  in
  let alloc_handicap =
    Arg.(
      value & opt_all string []
      & info [ "alloc-handicap" ] ~docv:"NAME:WORDS"
          ~doc:
            "Inject a synthetic allocation of WORDS minor words into the \
             named arm — an allocation regression for testing the \
             gc.minor_w gate end-to-end.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Measure the benchmark suite (median/MAD/CV over repeated runs, a \
          steady-state minor-words pass, plus a counter/GC observation \
          pass) and optionally gate against or record into the commit-keyed \
          trajectory.  The gate judges time and allocation independently: \
          either kind of regression exits 1.")
    Term.(
      const bench $ gate $ record $ trajectory $ runs $ quick $ threshold
      $ window $ note $ handicap $ alloc_handicap)

(* --- report --- *)

let report trajectory last window threshold =
  let history = load_history trajectory in
  if history = [] then begin
    Printf.eprintf
      "wl: %s is empty or missing (record with wl bench --record)\n" trajectory;
    exit 2
  end;
  let history =
    match last with
    | Some n when n > 0 && List.length history > n ->
      List.filteri (fun i _ -> i >= List.length history - n) history
    | _ -> history
  in
  Format.printf "%a@." (Report.pp_terminal ~window ~threshold_pct:threshold)
    history

let report_cmd =
  let trajectory =
    Arg.(
      value
      & opt string "BENCH_trajectory.jsonl"
      & info [ "trajectory" ] ~docv:"FILE"
          ~doc:
            "Trajectory to render (JSONL from wl bench --record, or one \
             standalone entry object).")
  in
  let last =
    Arg.(
      value
      & opt (some int) None
      & info [ "last" ] ~docv:"N" ~doc:"Render only the last $(docv) entries.")
  in
  let window =
    Arg.(
      value & opt int 5
      & info [ "window" ] ~docv:"K" ~doc:"Gate window (as in wl bench).")
  in
  let threshold =
    Arg.(
      value & opt float 10.
      & info [ "threshold" ] ~docv:"PCT" ~doc:"Gate threshold (as in wl bench).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render the bench trajectory as a terminal dashboard: trend \
          sparklines, baseline deltas, counter movements and GC by span.")
    Term.(const report $ trajectory $ last $ window $ threshold)

(* --- trace-check --- *)

let trace_check file =
  let contents =
    match In_channel.with_open_text file In_channel.input_all with
    | s -> s
    | exception Sys_error msg ->
      prerr_endline ("wl: " ^ msg);
      exit 1
  in
  match Trace.validate_chrome contents with
  | Ok n -> Printf.printf "trace ok: %d events\n" n
  | Error msg ->
    Printf.eprintf "wl: %s: %s\n" file msg;
    exit 1

let trace_check_cmd =
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a trace file (from analyze --trace, or a flight-recorder \
          .trace.json dump) against the chrome trace-event schema.")
    Term.(const trace_check $ file_arg)

(* --- metrics-check --- *)

let metrics_check file =
  let contents =
    match In_channel.with_open_text file In_channel.input_all with
    | s -> s
    | exception Sys_error msg ->
      prerr_endline ("wl: " ^ msg);
      exit 1
  in
  match Wl_obs.Openmetrics.validate contents with
  | Ok st ->
    Printf.printf "metrics ok: %d families, %d samples\n"
      st.Wl_obs.Openmetrics.families st.Wl_obs.Openmetrics.samples
  | Error msg ->
    Printf.eprintf "wl: %s: %s\n" file msg;
    exit 1

let metrics_check_cmd =
  Cmd.v
    (Cmd.info "metrics-check"
       ~doc:
         "Validate an OpenMetrics text exposition (from wl-stress \
          --metrics-out or wl top --metrics-out) against the format rules.")
    Term.(const metrics_check $ file_arg)

(* --- top --- *)

(* Live-daemon mode (--connect): poll the wlrpc/1 introspection RPCs and
   render shard-merged daemon-wide figures — true cross-shard p50/p99
   from the server's Hdr.merge_into rollup, per-tenant rows, exemplar
   trace ids on the tails — without queueing behind engine work. *)
let top_connect ~addr ~frames ~interval ~metrics_out =
  let module Client = Wl_serve.Client in
  let module Proto = Wl_serve.Proto in
  let c = or_die_e ~ctx:addr (Client.connect addr) in
  let tr_p99 = ref [] in
  let last_seen = ref None in
  for frame = 1 to frames do
    let d = or_die_e ~ctx:addr (Client.daemon_stats c) in
    let dh = or_die_e ~ctx:addr (Client.daemon_health c) in
    last_seen := Some d;
    tr_p99 := float_of_int d.Proto.d_add.Proto.l_p99 :: !tr_p99;
    Printf.printf "frame %d/%d: %d shards, %d sessions%s\n" frame frames
      d.Proto.d_shards d.Proto.d_sessions
      (if dh.Proto.dh_healthy then ""
       else
         Printf.sprintf "  [UNHEALTHY: %s]"
           (String.concat "," dh.Proto.dh_unhealthy));
    let row what (r : Proto.lat_rollup) =
      Printf.printf "  %-7s %8d ops  p50 %10s  p99 %10s  max %10s%s\n" what
        r.Proto.l_count
        (Report.human_ns (float_of_int r.Proto.l_p50))
        (Report.human_ns (float_of_int r.Proto.l_p99))
        (Report.human_ns (float_of_int r.Proto.l_max))
        (if r.Proto.l_ex_trace = 0 then ""
         else
           Printf.sprintf "  exemplar %s trace=%x"
             (Report.human_ns (float_of_int r.Proto.l_ex_ns))
             r.Proto.l_ex_trace)
    in
    row "add" d.Proto.d_add;
    row "remove" d.Proto.d_remove;
    Printf.printf "  add p99 trend %s\n" (Report.sparkline (List.rev !tr_p99));
    List.iter
      (fun (t : Proto.tenant_row) ->
        Printf.printf
          "  tenant %-12s shard %d  %5d paths  pi %3d  %6d ops  add p50 %10s  p99 %10s%s\n"
          t.Proto.r_tenant t.Proto.r_shard t.Proto.r_paths t.Proto.r_pi
          t.Proto.r_ops
          (Report.human_ns (float_of_int t.Proto.r_add_p50))
          (Report.human_ns (float_of_int t.Proto.r_add_p99))
          (if t.Proto.r_healthy then "" else "  [UNHEALTHY]"))
      d.Proto.d_tenants;
    flush stdout;
    if interval > 0. && frame < frames then Unix.sleepf interval
  done;
  Client.close c;
  match (metrics_out, !last_seen) with
  | None, _ | _, None -> ()
  | Some path, Some d ->
    let f = float_of_int in
    let doc =
      Wl_obs.Openmetrics.render
        ~gauges:
          [
            ("wld.shards", f d.Proto.d_shards);
            ("wld.sessions", f d.Proto.d_sessions);
            ("wld.add.p50_ns", f d.Proto.d_add.Proto.l_p50);
            ("wld.add.p99_ns", f d.Proto.d_add.Proto.l_p99);
            ("wld.remove.p50_ns", f d.Proto.d_remove.Proto.l_p50);
            ("wld.remove.p99_ns", f d.Proto.d_remove.Proto.l_p99);
          ]
        ~labeled:
          [
            ( "wld.tenant.paths",
              List.map
                (fun (t : Proto.tenant_row) ->
                  ([ ("tenant", t.Proto.r_tenant) ], f t.Proto.r_paths))
                d.Proto.d_tenants );
            ( "wld.tenant.add_p99_ns",
              List.map
                (fun (t : Proto.tenant_row) ->
                  ([ ("tenant", t.Proto.r_tenant) ], f t.Proto.r_add_p99))
                d.Proto.d_tenants );
          ]
        []
    in
    Cli_common.write_text ~progname:"wl top" ~what:"OpenMetrics exposition"
      path doc

(* An in-process churn loop: random add/remove ops against one engine
   session, drawn from the instance's own dipath pool, with a periodic
   terminal readout of latency/health trends.  The point is to watch the
   observability surfaces move — not to benchmark (wl bench does that). *)
let top file connect frames interval ops_per_frame seed budget metrics_out =
  match connect with
  | Some addr ->
    top_connect ~addr ~frames ~interval ~metrics_out;
    ignore (ops_per_frame, seed, budget)
  | None ->
  let module Engine = Wl_engine.Engine in
  let file =
    match file with
    | Some f -> f
    | None ->
      prerr_endline "wl: top: an instance FILE is required unless --connect ADDR is given";
      exit 2
  in
  let inst = read_instance file in
  let pool = Instance.paths inst in
  if Array.length pool = 0 then begin
    prerr_endline "wl: top: the instance has no dipaths to churn";
    exit 1
  end;
  Metrics.set_enabled true;
  let s = Engine.create ?repair_budget:budget inst in
  (* Solve once up front so the churn exercises the warm paths from the
     first frame instead of deferring everything to a dirty re-solve. *)
  ignore (Engine.report s);
  let rng = Wl_util.Prng.create seed in
  let live = ref (List.map fst (Engine.live_paths s)) in
  let n_live = ref (List.length !live) in
  let tr_p99 = ref [] and tr_hit = ref [] and tr_pal = ref [] in
  for frame = 1 to frames do
    for _ = 1 to ops_per_frame do
      if !n_live = 0 || Wl_util.Prng.bernoulli rng 0.55 then (
        match Engine.add_dipath s (Wl_util.Prng.choose rng pool) with
        | Ok pid ->
          live := pid :: !live;
          incr n_live
        | Error _ -> ())
      else
        let pid = List.nth !live (Wl_util.Prng.int rng !n_live) in
        match Engine.remove_path s pid with
        | Ok () ->
          live := List.filter (fun x -> x <> pid) !live;
          decr n_live
        | Error _ -> ()
    done;
    let h = Engine.health s in
    let r = Engine.report s in
    tr_p99 := float_of_int h.Engine.add_latency.Wl_obs.Hdr.p99 :: !tr_p99;
    tr_hit := h.Engine.warm_hit_recent :: !tr_hit;
    tr_pal := float_of_int r.Solver.n_wavelengths :: !tr_pal;
    Printf.printf "frame %d/%d: %d paths, %d wavelengths (load %d)%s\n" frame
      frames (Engine.n_live_paths s) r.Solver.n_wavelengths r.Solver.pi
      (if h.Engine.healthy then "" else "  [UNHEALTHY]");
    Printf.printf "  add p99   %10s  %s\n"
      (Report.human_ns (float_of_int h.Engine.add_latency.Wl_obs.Hdr.p99))
      (Report.sparkline (List.rev !tr_p99));
    Printf.printf "  warm hit  %9.0f%%  %s\n"
      (100. *. h.Engine.warm_hit_recent)
      (Report.sparkline (List.rev !tr_hit));
    Printf.printf "  palette   %10d  %s\n%!" r.Solver.n_wavelengths
      (Report.sparkline (List.rev !tr_pal));
    if interval > 0. && frame < frames then Unix.sleepf interval
  done;
  Format.printf "%a@." Engine.pp_health (Engine.health s);
  Metrics.set_enabled false;
  match metrics_out with
  | None -> ()
  | Some path ->
    let h = Engine.health s in
    let r = Engine.report s in
    Cli_common.write_metrics ~progname:"wl top"
      ~gauges:
        [
          ("engine.session.paths", float_of_int (Engine.n_live_paths s));
          ("engine.session.palette", float_of_int r.Solver.n_wavelengths);
          ("engine.session.pi", float_of_int (Engine.pi s));
          ("engine.session.warm_hit_recent", h.Engine.warm_hit_recent);
          ("engine.session.warm_hit_lifetime", h.Engine.warm_hit_lifetime);
          ( "engine.session.fallback_streak",
            float_of_int h.Engine.fallback_streak );
        ]
      ~latencies:
        [
          ("engine.session.add.ns", h.Engine.add_latency);
          ("engine.session.remove.ns", h.Engine.remove_latency);
        ]
      ~exemplars:
        (List.filter_map
           (fun (name, ex) -> Option.map (fun e -> (name, e)) ex)
           [
             ("engine.session.add.ns", h.Engine.add_exemplar);
             ("engine.session.remove.ns", h.Engine.remove_exemplar);
           ])
      path

let top_cmd =
  let file =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Instance file to churn (omit with $(b,--connect)).")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Watch a live daemon instead of churning locally: poll the \
             wlrpc/1 introspection RPCs and render shard-merged \
             daemon-wide p50/p99 (true cross-shard quantiles via the \
             server's histogram merge), per-tenant rows and exemplar \
             trace ids.")
  in
  let frames =
    Arg.(
      value & opt int 10
      & info [ "frames" ] ~docv:"N" ~doc:"Readout frames to render.")
  in
  let interval =
    Arg.(
      value & opt float 0.5
      & info [ "interval" ] ~docv:"SECS"
          ~doc:"Seconds between frames (0 renders back-to-back; CI uses 0).")
  in
  let ops =
    Arg.(
      value & opt int 256
      & info [ "ops" ] ~docv:"K" ~doc:"Engine ops applied per frame.")
  in
  let seed = Cli_common.seed_arg ~default:0 ~doc:"PRNG seed for the op mix." () in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "repair-budget" ] ~docv:"N"
          ~doc:"Warm-repair recolor budget (as in wl session).")
  in
  let metrics_out =
    Cli_common.metrics_out_arg
      ~doc:
        "After the last frame, write the OpenMetrics exposition (global \
         counters plus this session's gauges and latency summaries) to \
         $(docv) ($(b,-) for stdout)."
      ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Drive a random op churn against one engine session and watch its \
          health live (per-frame latency/warm-hit/palette sparklines plus \
          the SLO readout) — or, with $(b,--connect), watch a running wld \
          daemon's shard-merged rollups and per-tenant rows.")
    Term.(
      const top $ file $ connect $ frames $ interval $ ops $ seed $ budget
      $ metrics_out)

(* --- trace (pull) --- *)

(* Pull the merged flight rings of every live session out of a running
   daemon as one Chrome trace document — the live sibling of the drain
   dump, loadable in Perfetto and accepted by wl trace-check. *)
let trace_pull addr last out =
  let module Client = Wl_serve.Client in
  let c = or_die_e ~ctx:addr (Client.connect addr) in
  let doc = or_die_e ~ctx:addr (Client.trace_pull ~last c) in
  Client.close c;
  (match Trace.validate_chrome doc with
  | Ok _ -> ()
  | Error msg ->
    Printf.eprintf "wl: trace pull: daemon returned an invalid trace: %s\n" msg;
    exit 1);
  Cli_common.write_text ~progname:"wl trace" ~what:"Chrome trace" out doc

let trace_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:"Daemon address: $(b,unix:PATH) or $(b,tcp:HOST:PORT).")
  in
  let last =
    Arg.(
      value & opt int 0
      & info [ "last" ] ~docv:"N"
          ~doc:"Cap ops pulled per session ring (0 = the whole ring).")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "out" ] ~docv:"PATH"
          ~doc:"Write the trace document to $(docv) ($(b,-) for stdout).")
  in
  let pull_cmd =
    Cmd.v
      (Cmd.info "pull"
         ~doc:
           "Pull the merged flight rings of every live session from a \
            running daemon as one Chrome/Perfetto trace document (one \
            track per session, tenant and trace ids in the event args); \
            validated against the trace-event schema before writing.")
      Term.(const trace_pull $ addr $ last $ out)
  in
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Distributed-trace operations against a live wld daemon.")
    [ pull_cmd ]

(* --- wld --- *)

let wld addr shards max_queue flight_capacity metrics_out health_dump
    flight_dump =
  let module Engine = Wl_engine.Engine in
  let module Shard = Wl_serve.Shard in
  let module Server = Wl_serve.Server in
  let address = or_die_e ~ctx:addr (Server.address_of_string addr) in
  Option.iter install_flight_dump flight_dump;
  if metrics_out <> None then Metrics.set_enabled true;
  let shard = Shard.create ~flight_capacity ~shards ~max_queue () in
  let srv = or_die_e ~ctx:addr (Server.serve ~shard address) in
  Printf.eprintf "wld: serving wlrpc/%d on %s (%d shards, queue %d)\n%!"
    Wl_serve.Proto.version
    (Server.address_to_string address)
    shards max_queue;
  let stop _ = Server.request_stop srv in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sessions = Server.wait srv in
  Printf.eprintf "wld: drained %d sessions\n%!" (List.length sessions);
  (* per-session health listing: the artifact the drain promises *)
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (fun (tenant, s) ->
      Format.fprintf fmt "tenant %s@,%a@," tenant Engine.pp_health
        (Engine.health s))
    sessions;
  Format.pp_print_flush fmt ();
  (match health_dump with
  | None -> ()
  | Some path ->
    Cli_common.write_text ~progname:"wld" ~what:"session health listing" path
      (Buffer.contents buf));
  (* flight recorders survive the drain quiesced: dump through the shared
     handler so the traces pass wl trace-check like any other dump *)
  if flight_dump <> None then
    List.iter
      (fun (tenant, s) ->
        let fl = Engine.flight s in
        Wl_obs.Flight.rearm fl;
        Wl_obs.Flight.trigger ~reason:("drain " ^ tenant) fl)
      sessions;
  (match metrics_out with
  | None -> ()
  | Some path ->
    Metrics.set_enabled false;
    Cli_common.write_metrics ~progname:"wld"
      ~gauges:
        [
          ("wld.shards", float_of_int shards);
          ("wld.sessions_at_drain", float_of_int (List.length sessions));
        ]
      path);
  exit 0

let wld_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:
            "Listen address: $(b,unix:PATH) or $(b,tcp:HOST:PORT) (a bare \
             path counts as unix, a bare HOST:PORT as tcp).")
  in
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Engine worker domains; sessions are hash-partitioned over \
             them by tenant id.")
  in
  let max_queue =
    Arg.(
      value & opt int 1024
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Per-shard request queue bound; producers block (backpressure) \
             when a shard is this far behind.")
  in
  let flight_capacity =
    Arg.(
      value & opt int 256
      & info [ "flight-capacity" ] ~docv:"N"
          ~doc:
            "Flight-recorder ring size per session (smaller than the \
             embedded default so thousands of sessions stay cheap).")
  in
  let metrics_out = Cli_common.metrics_out_arg () in
  let health_dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "health-dump" ] ~docv:"PATH"
          ~doc:
            "On drain, write the per-tenant engine health listing to \
             $(docv) ($(b,-) for stdout).")
  in
  let flight_dump = Cli_common.flight_dump_arg () in
  Cmd.v
    (Cmd.info "wld"
       ~doc:
         "Serve wavelength assignment over the wlrpc/1 protocol: a \
          long-lived daemon sharding engine sessions across domains, with \
          graceful drain on SIGTERM (stop accepting, flush shards, dump \
          per-session health).")
    Term.(
      const wld $ addr $ shards $ max_queue $ flight_capacity $ metrics_out
      $ health_dump $ flight_dump)

let () =
  let info =
    Cmd.info "wl" ~version:"1.0.0"
      ~doc:"Wavelength assignment on DAGs (Bermond & Cosnard, IPDPS 2007)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_cmd; color_cmd; route_cmd; generate_cmd; dot_cmd; svg_cmd; groom_cmd;
            witness_cmd; verify_cmd; session_cmd; top_cmd; trace_cmd; wld_cmd;
            fuzz_cmd; bench_cmd; report_cmd; trace_check_cmd; metrics_check_cmd;
          ]))
