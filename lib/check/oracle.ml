open Wl_digraph
open Wl_core
module Engine = Wl_engine.Engine
module Script = Wl_engine.Script
module Generators = Wl_netgen.Generators
module Path_gen = Wl_netgen.Path_gen
module Prng = Wl_util.Prng
module Classify = Wl_dag.Classify
module Client = Wl_serve.Client
module Proto = Wl_serve.Proto
module Wire = Wl_serve.Wire
module Ctx = Wl_obs.Ctx

type t = {
  name : string;
  doc : string;
  generate : int -> Subject.t;
  check : Subject.t -> string option;
}

(* --- shared generator pieces ------------------------------------------------ *)

let dedup paths =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun p ->
      let key = Dipath.vertices p in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    paths

(* Random engine op mix (same shape as the PR-3 equivalence property):
   mostly path insertions via short random walks, some removals by raw
   handle, some arc insertions by raw endpoints — including ops the engine
   must reject, since rejection is part of the behavior under test. *)
let random_ops rng g ~n_initial ~count =
  let n = Digraph.n_vertices g in
  let next = ref n_initial in
  List.init count (fun _ ->
      match Prng.int rng 10 with
      | 0 | 1 ->
        if !next = 0 then Engine.Add_arc (Prng.int rng n, Prng.int rng n)
        else Engine.Remove_path (Prng.int rng !next)
      | 2 -> Engine.Add_arc (Prng.int rng n, Prng.int rng n)
      | _ ->
        let rec go v acc len =
          let succs = Digraph.succ g v in
          if succs = [] || len >= 5 || (len >= 1 && Prng.bernoulli rng 0.3) then
            List.rev acc
          else
            let w = Prng.choose_list rng succs in
            go w (w :: acc) (len + 1)
        in
        let v0 = Prng.int rng n in
        incr next;
        Engine.Add_path (go v0 [ v0 ] 0))

let distinct_paths inst =
  let seen = Hashtbl.create 16 in
  List.for_all
    (fun p ->
      let key = Dipath.vertices p in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    (Instance.paths_list inst)

let same_instance a b =
  let ga = Instance.graph a and gb = Instance.graph b in
  Digraph.n_vertices ga = Digraph.n_vertices gb
  && Digraph.arcs ga = Digraph.arcs gb
  && List.map Dipath.vertices (Instance.paths_list a)
     = List.map Dipath.vertices (Instance.paths_list b)

(* --- thm1_dsatur ------------------------------------------------------------ *)

let thm1_dsatur =
  let generate seed =
    let rng = Prng.create seed in
    let dag = Generators.gnp_no_internal_cycle rng 14 0.25 in
    Subject.make (Path_gen.random_instance rng dag 8)
  in
  let check (s : Subject.t) =
    let inst = s.Subject.inst in
    if Wl_dag.Internal_cycle.has_internal_cycle (Instance.dag inst) then None
    else begin
      let pi = Load.pi inst in
      match Theorem1.color_result inst with
      | Error _ -> Some "theorem 1 hit case C without an internal cycle"
      | Ok a ->
        if not (Assignment.is_valid inst a) then
          Some "theorem 1 produced an invalid assignment"
        else begin
          let w1 = Assignment.n_wavelengths (Assignment.normalize a) in
          if w1 <> pi then
            Some
              (Printf.sprintf "theorem 1 used %d wavelengths, load is %d" w1 pi)
          else begin
            let cg = Conflict_of.build inst in
            let d = Wl_conflict.Coloring.dsatur cg in
            if not (Wl_conflict.Coloring.is_valid cg d) then
              Some "DSATUR produced an invalid coloring"
            else begin
              let wd =
                Wl_conflict.Coloring.n_colors (Wl_conflict.Coloring.normalize d)
              in
              if wd < pi then
                Some
                  (Printf.sprintf "DSATUR used %d colors, below the load %d" wd
                     pi)
              else None
            end
          end
        end
    end
  in
  {
    name = "thm1_dsatur";
    doc = "Theorem 1 (w = pi) vs an independent DSATUR arm, both audited";
    generate;
    check;
  }

(* --- solver_exact ----------------------------------------------------------- *)

let solver_exact =
  let generate seed =
    let rng = Prng.create seed in
    let dag = Generators.gnp_dag rng 10 0.3 in
    Subject.make (Path_gen.random_instance rng dag 6)
  in
  let check (s : Subject.t) =
    let inst = s.Subject.inst in
    if Instance.n_paths inst > 12 then None
    else begin
      let report = Solver.solve inst in
      let chi = Bounds.chromatic_exact inst in
      if not (Assignment.is_valid inst report.Solver.assignment) then
        Some "solver produced an invalid assignment"
      else if report.Solver.n_wavelengths < chi then
        Some
          (Printf.sprintf "solver used %d wavelengths, chromatic number is %d"
             report.Solver.n_wavelengths chi)
      else if report.Solver.lower_bound > chi then
        Some
          (Printf.sprintf "lower bound %d exceeds the chromatic number %d"
             report.Solver.lower_bound chi)
      else if Load.pi inst > chi then
        Some
          (Printf.sprintf "load %d exceeds the chromatic number %d"
             (Load.pi inst) chi)
      else if report.Solver.optimal && report.Solver.n_wavelengths <> chi then
        Some
          (Printf.sprintf
             "optimal report used %d wavelengths, chromatic number is %d"
             report.Solver.n_wavelengths chi)
      else None
    end
  in
  {
    name = "solver_exact";
    doc = "Solver dispatch vs the exact chromatic number on small instances";
    generate;
    check;
  }

(* --- engine ----------------------------------------------------------------- *)

(* Side channel for the engine oracle's flight dump: the last failing
   check leaves its session's (jsonl, chrome) renderings here, and the
   fuzz driver collects them right after a sequential (re-)check, so the
   dump always matches the reproducer it is attached to.  Racy under
   parallel waves by design — only the sequential post-shrink re-check
   reads it. *)
let flight_box : (string * string) option ref = ref None

let take_flight () =
  let v = !flight_box in
  flight_box := None;
  v

let stash_flight sess =
  let fl = Engine.flight sess in
  flight_box :=
    Some (Wl_obs.Flight.to_jsonl fl, Wl_obs.Flight.to_chrome fl)

let engine =
  let generate seed =
    let rng = Prng.create seed in
    let dag = Generators.gnp_no_internal_cycle rng 12 0.25 in
    let inst = Path_gen.random_instance rng dag 5 in
    let ops =
      random_ops rng (Instance.graph inst)
        ~n_initial:(Instance.n_paths inst) ~count:12
    in
    Subject.make ~ops inst
  in
  let check (s : Subject.t) =
    let sess = Engine.create s.Subject.inst in
    let compare_with_fresh step =
      let r = Engine.report sess in
      let inst = Engine.instance sess in
      let fresh = Solver.solve inst in
      if not (Assignment.is_valid inst r.Solver.assignment) then
        Some (Printf.sprintf "engine assignment invalid after op %d" step)
      else if r.Solver.n_wavelengths <> fresh.Solver.n_wavelengths then
        Some
          (Printf.sprintf
             "engine reported %d wavelengths, fresh solve %d, after op %d"
             r.Solver.n_wavelengths fresh.Solver.n_wavelengths step)
      else if r.Solver.optimal <> fresh.Solver.optimal then
        Some (Printf.sprintf "optimality flag diverged after op %d" step)
      else
        match Engine.audit sess with
        | Ok () -> None
        | Error msg -> Some (Printf.sprintf "audit after op %d: %s" step msg)
    in
    let rec go step = function
      | [] -> None
      | op :: rest -> (
        ignore (Engine.submit sess [ op ]);
        match compare_with_fresh step with
        | Some _ as failure -> failure
        | None -> go (step + 1) rest)
    in
    let result =
      match compare_with_fresh (-1) with
      | Some _ as failure -> failure
      | None -> go 0 s.Subject.ops
    in
    if result <> None then stash_flight sess;
    result
  in
  {
    name = "engine";
    doc = "Warm incremental sessions vs a fresh solve after every op";
    generate;
    check;
  }

(* --- serial ----------------------------------------------------------------- *)

let serial =
  let generate seed =
    let rng = Prng.create seed in
    let dag = Generators.gnp_dag rng 12 0.25 in
    let inst = Path_gen.random_instance rng dag 6 in
    let ops =
      random_ops rng (Instance.graph inst)
        ~n_initial:(Instance.n_paths inst) ~count:6
    in
    Subject.make ~ops inst
  in
  let check (s : Subject.t) =
    let inst = s.Subject.inst in
    let text = Serial.to_string inst in
    match Serial.of_string text with
    | Error e -> Some ("v2 parse failed: " ^ Error.to_string e)
    | Ok inst2 ->
      if Serial.to_string inst2 <> text then Some "v2 re-render not byte-stable"
      else if not (same_instance inst inst2) then
        Some "v2 round-trip changed the instance"
      else begin
        let v1 = Serial.to_string ~version:1 inst in
        match Serial.of_string v1 with
        | Error e -> Some ("v1 parse failed: " ^ Error.to_string e)
        | Ok inst1 ->
          if not (same_instance inst inst1) then
            Some "v1 round-trip changed the instance"
          else begin
            match Serial.of_json (Serial.to_json inst) with
            | Error e -> Some ("json parse failed: " ^ Error.to_string e)
            | Ok instj ->
              if not (same_instance inst instj) then
                Some "json round-trip changed the instance"
              else begin
                match Serial.of_json (Serial.to_json ~pretty:true inst) with
                | Error e ->
                  Some ("pretty json parse failed: " ^ Error.to_string e)
                | Ok instp ->
                  if not (same_instance inst instp) then
                    Some "pretty json round-trip changed the instance"
                  else begin
                    let ops = s.Subject.ops in
                    match Script.of_string (Script.to_string ops) with
                    | Error e ->
                      Some ("ops text parse failed: " ^ Error.to_string e)
                    | Ok ops' when ops' <> ops ->
                      Some "ops text round-trip changed the script"
                    | Ok _ -> (
                      match Script.of_json (Script.to_json ops) with
                      | Error e ->
                        Some ("ops json parse failed: " ^ Error.to_string e)
                      | Ok ops' when ops' <> ops ->
                        Some "ops json round-trip changed the script"
                      | Ok _ -> None)
                  end
              end
          end
      end
  in
  {
    name = "serial";
    doc = "Text v1/v2 and JSON round-trips of instances and op scripts";
    generate;
    check;
  }

(* --- invariants ------------------------------------------------------------- *)

let invariants =
  let generate seed =
    let rng = Prng.create seed in
    match seed mod 4 with
    | 0 ->
      let dag = Generators.gnp_no_internal_cycle rng 12 0.25 in
      Subject.make (Path_gen.random_instance rng dag 8)
    | 1 ->
      let dag = Generators.gnp_dag rng 12 0.3 in
      Subject.make (Path_gen.random_instance rng dag 8)
    | 2 ->
      let dag = Generators.upp_one_internal_cycle rng () in
      Subject.make (Instance.make dag (dedup (Path_gen.random_family rng dag 10)))
    | _ ->
      let dag = Generators.upp_internal_cycles rng ~cycles:(1 + (seed mod 3)) () in
      Subject.make (Instance.make dag (dedup (Path_gen.random_family rng dag 10)))
  in
  let check (s : Subject.t) =
    let inst = s.Subject.inst in
    let report = Solver.solve inst in
    let pi = Load.pi inst in
    let c = report.Solver.classification in
    if not (Assignment.is_valid inst report.Solver.assignment) then
      Some "invalid assignment"
    else if report.Solver.pi <> pi then
      Some
        (Printf.sprintf "report load %d, recomputed load %d" report.Solver.pi
           pi)
    else if report.Solver.n_wavelengths < pi then
      Some
        (Printf.sprintf "pi <= w violated: %d wavelengths, load %d"
           report.Solver.n_wavelengths pi)
    else if
      c.Classify.n_internal_cycles = 0 && report.Solver.n_wavelengths <> pi
    then
      Some
        (Printf.sprintf
           "w = pi violated without internal cycle: %d wavelengths, load %d"
           report.Solver.n_wavelengths pi)
    else if
      c.Classify.is_upp
      && Wl_conflict.Graph_props.has_k23 (Conflict_of.build inst)
    then Some "induced K_{2,3} in a UPP conflict graph (Corollary 5)"
    else if
      report.Solver.method_used = Solver.Theorem_6
      && distinct_paths inst
      && report.Solver.n_wavelengths > Theorem6.upper_bound pi
    then
      Some
        (Printf.sprintf "Theorem 6 ceiling violated: %d wavelengths, load %d"
           report.Solver.n_wavelengths pi)
    else
      match Certificate.audit inst report with
      | [] -> None
      | issue :: _ -> Some ("certificate: " ^ issue)
  in
  {
    name = "invariants";
    doc =
      "Paper invariants on mixed classes: validity, pi <= w, w = pi without \
       internal cycles, UPP K_{2,3}-freeness, Theorem 6 ceiling, certificate \
       audit";
    generate;
    check;
  }

(* --- routing_packing ---------------------------------------------------------

   The requests live inside the subject as routed dipaths (one per request,
   endpoints = the request), so the stock shrinker applies: dropping paths
   drops requests, and the reproducer is a plain instance file.  The check
   re-derives the request multiset from the endpoints and runs the full
   routing stage on it. *)

let routing_packing =
  let generate seed =
    let rng = Prng.create seed in
    let module Traffic = Wl_netgen.Traffic in
    let dag, requests =
      match seed mod 3 with
      | 0 ->
        let dag = Generators.gnp_dag rng 12 0.3 in
        (dag, Traffic.uniform rng dag 10)
      | 1 ->
        let dag = Generators.layered rng ~layers:4 ~width:3 ~p:0.5 in
        (dag, Traffic.hotspot rng dag ~hubs:2 ~bias:0.7 12)
      | _ ->
        let dag = Generators.gnp_no_internal_cycle rng 14 0.25 in
        (dag, Traffic.uniform rng dag 8)
    in
    let paths =
      match Routing.route_shortest dag requests with Ok ps -> ps | Error _ -> []
    in
    Subject.make (Instance.make dag paths)
  in
  let check (s : Subject.t) =
    let inst = s.Subject.inst in
    if Instance.n_paths inst = 0 then None
    else begin
      let dag = Instance.dag inst in
      let requests =
        List.map (fun p -> (Dipath.src p, Dipath.dst p)) (Instance.paths_list inst)
      in
      match Routing.select ~k:4 dag requests with
      | Error e ->
        Some ("select failed on routable requests: " ^ Error.to_string e)
      | Ok sel ->
        let routed = Routing.instance_of_selection dag sel in
        let pi = Load.pi routed in
        let w = (Solver.solve routed).Solver.n_wavelengths in
        if sel.Routing.max_load > sel.Routing.seed_load then
          Some
            (Printf.sprintf
               "local search worsened the seed: max load %d, seed %d"
               sel.Routing.max_load sel.Routing.seed_load)
        else if pi <> sel.Routing.max_load then
          Some
            (Printf.sprintf "reported max load %d, instance load %d"
               sel.Routing.max_load pi)
        else if sel.Routing.lower_bound > pi then
          Some
            (Printf.sprintf "packing lower bound %d exceeds achieved load %d"
               sel.Routing.lower_bound pi)
        else if pi > w then
          Some (Printf.sprintf "load %d exceeds wavelength count %d" pi w)
        else if sel.Routing.lower_bound > w then
          Some
            (Printf.sprintf "packing lower bound %d exceeds wavelengths %d"
               sel.Routing.lower_bound w)
        else None
    end
  in
  {
    name = "routing_packing";
    doc =
      "Full routing stage on fuzzed request sets: packing-number lower \
       bound <= achieved load <= w, local search never above the greedy \
       seed";
    generate;
    check;
  }

(* --- client_vs_engine -------------------------------------------------------- *)

let errs = Error.to_string

let rec first f = function
  | [] -> None
  | x :: rest -> ( match f x with Some _ as s -> s | None -> first f rest)

(* An engine batch as the client sees it across the wire. *)
let wire_outcomes (b : Engine.batch) =
  Array.map (Result.map Proto.outcome_of_engine) b.Engine.outcomes

let client_vs_engine =
  let generate seed =
    let rng = Prng.create seed in
    let dag = Generators.gnp_no_internal_cycle rng 12 0.25 in
    let inst = Path_gen.random_instance rng dag 5 in
    let ops =
      random_ops rng (Instance.graph inst)
        ~n_initial:(Instance.n_paths inst) ~count:12
    in
    Subject.make ~ops inst
  in
  (* One loopback client (sync shard, full codec round trip on every call)
     against one bare engine session, op for op.  Statistics must agree
     exactly: the sync shard batches nothing, so the service boundary adds
     no observable behavior of its own. *)
  let check_encoding ~json (s : Subject.t) =
    let inst = s.Subject.inst in
    let tag = if json then "json" else "text" in
    let fail fmt = Printf.ksprintf Option.some fmt in
    let c = Client.local ~json () in
    Fun.protect ~finally:(fun () -> try Client.close c with _ -> ())
    @@ fun () ->
    match Client.session c ~tenant:"no spaces!" with
    | Ok _ -> fail "%s: invalid tenant id accepted" tag
    | Error e when (match e with Error.Precondition _ -> false | _ -> true) ->
      fail "%s: invalid tenant rejected with %s, want Precondition" tag
        (errs e)
    | Error _ -> (
      match Client.open_session c ~tenant:"oracle" inst with
      | Error e -> fail "%s: open failed: %s" tag (errs e)
      | Ok csess ->
        let eng = Engine.create inst in
        (* [Open] replies with a report, so the service session has seen
           one [Engine.report] before any op; keep the arms aligned. *)
        ignore (Engine.report eng);
        let rec steps step = function
          | [] -> None
          | op :: rest -> (
            let b = Engine.submit eng [ op ] in
            match Client.submit csess [ op ] with
            | Error e ->
              fail "%s: submit failed at op %d: %s" tag step (errs e)
            | Ok r ->
              if r.Client.outcomes <> wire_outcomes b then
                fail "%s: outcomes diverged at op %d" tag step
              else if
                r.Client.after <> Proto.report_of_solver b.Engine.batch_report
              then fail "%s: batch report diverged at op %d" tag step
              else if Client.stats csess <> Ok (Engine.stats eng) then
                fail "%s: stats diverged at op %d" tag step
              else steps (step + 1) rest)
        in
        let colors () =
          (* One id past anything live: dead-handle errors must round-trip
             identically too. *)
          let n_ids = Instance.n_paths inst + List.length s.Subject.ops + 1 in
          let rec go i =
            if i >= n_ids then None
            else if Client.color_of csess i <> Engine.color_of eng i then
              fail "%s: color_of %d diverged" tag i
            else go (i + 1)
          in
          go 0
        in
        let finale () =
          if
            Client.report csess
            <> Ok (Proto.report_of_solver (Engine.report eng))
          then fail "%s: final report diverged" tag
          else if Client.pi csess <> Ok (Engine.pi eng) then
            fail "%s: pi diverged" tag
          else
            match Client.snapshot csess with
            | Error e -> fail "%s: snapshot failed: %s" tag (errs e)
            | Ok snap ->
              if not (same_instance snap (Engine.instance eng)) then
                fail "%s: snapshot instance diverged" tag
              else (
                match Client.health csess with
                | Error e -> fail "%s: health failed: %s" tag (errs e)
                | Ok _ -> (
                  match Client.evict csess with
                  | Error e -> fail "%s: evict failed: %s" tag (errs e)
                  | Ok () -> (
                    match Client.pi csess with
                    | Error (Error.Invalid_op _) -> None
                    | Ok _ -> fail "%s: evicted session still answers" tag
                    | Error e ->
                      fail "%s: evicted session answered %s, want Invalid_op"
                        tag (errs e))))
        in
        first
          (fun f -> f ())
          [ (fun () -> steps 0 s.Subject.ops); colors; finale ])
  in
  let check s =
    match check_encoding ~json:false s with
    | Some _ as failure -> failure
    | None -> check_encoding ~json:true s
  in
  {
    name = "client_vs_engine";
    doc =
      "Loopback service client (full wlrpc/1 codec, text and JSON) vs a \
       bare engine session, op for op";
    generate = generate;
    check;
  }

(* --- wlrpc_frame ------------------------------------------------------------- *)

(* Instances are abstract, so requests/replies carrying one get structural
   comparison everywhere else and [same_instance] there. *)
let req_equal (a : Proto.req) (b : Proto.req) =
  match (a, b) with
  | ( Proto.Open { tenant = t1; instance = i1 },
      Proto.Open { tenant = t2; instance = i2 } ) ->
    t1 = t2 && same_instance i1 i2
  | Proto.Open _, _ | _, Proto.Open _ -> false
  | a, b -> a = b

let reply_equal (a : Proto.reply) (b : Proto.reply) =
  match (a, b) with
  | Ok (Proto.R_snapshot i1), Ok (Proto.R_snapshot i2) -> same_instance i1 i2
  | Ok (Proto.R_snapshot _), _ | _, Ok (Proto.R_snapshot _) -> false
  | a, b -> a = b

(* Every [Error.t] constructor, with payloads that stress the escaping
   (embedded newline and backslash survive the line-oriented text form)
   and the message field (doubled, leading and trailing spaces, empty). *)
let every_error =
  [
    Error.Parse { line = 3; msg = "unexpected token \\ and\nan embedded newline" };
    Error.Parse { line = 0; msg = "" };
    Error.Invalid_op "  two  spaces and trailing ";
    Error.Invalid_path "not a dipath";
    Error.Cyclic "back arc 4 -> 1";
    Error.Bad_index { what = "path"; index = 41 };
    Error.Invalid_op "remove of a dead path";
    Error.Precondition "tenant id must match [A-Za-z0-9_.-]";
    Error.Unsupported_version 9;
    Error.Io "connection reset by peer";
  ]

let wlrpc_frame =
  let generate seed =
    let rng = Prng.create seed in
    let dag = Generators.gnp_dag rng 10 0.3 in
    let inst = Path_gen.random_instance rng dag 5 in
    let ops =
      random_ops rng (Instance.graph inst)
        ~n_initial:(Instance.n_paths inst) ~count:8
    in
    Subject.make ~ops inst
  in
  let check (s : Subject.t) =
    let inst = s.Subject.inst in
    let t = "t0" in
    let fail fmt = Printf.ksprintf Option.some fmt in
    let req_of_op : Engine.op -> Proto.req = function
      | Engine.Add_path vs -> Proto.Add_path { tenant = t; vertices = vs }
      | Engine.Remove_path id -> Proto.Remove_path { tenant = t; id }
      | Engine.Add_arc (a, b) -> Proto.Add_arc { tenant = t; tail = a; head = b }
    in
    let reqs =
      [
        Proto.Hello Proto.version;
        Proto.Ping;
        Proto.Shutdown;
        Proto.Open { tenant = t; instance = inst };
        Proto.Submit { tenant = t; ops = s.Subject.ops };
        Proto.Report { tenant = t };
        Proto.Pi { tenant = t };
        Proto.Color_of { tenant = t; id = 2 };
        Proto.Stats { tenant = t };
        Proto.Health { tenant = t };
        Proto.Snapshot { tenant = t };
        Proto.Evict { tenant = t };
        Proto.Dstats;
        Proto.Dhealth;
        Proto.Trace_dump { last = 0 };
        Proto.Trace_dump { last = 64 };
      ]
      @ List.map req_of_op s.Subject.ops
    in
    let eng = Engine.create inst in
    let b = Engine.submit eng s.Subject.ops in
    let rep = Proto.report_of_solver b.Engine.batch_report in
    (* One dyadic rate and one that needs all 17 digits: both encodings
       carry floats exactly. *)
    let health =
      {
        Proto.healthy = true;
        add_p50 = 120;
        add_p99 = 3400;
        remove_p50 = 5;
        remove_p99 = 97;
        warm_hit_recent = 0.5;
        warm_hit_lifetime = 1. /. 3.;
        fallback_streak = 1;
      }
    in
    (* Introspection payloads: one rollup with an exemplar latched, one
       without; tenant ids stressing the full [tenant_ok] alphabet; a
       multi-line trace document (body round-trips byte-exactly, like
       [R_snapshot]'s instance). *)
    let rollup_ex =
      {
        Proto.l_count = 158;
        l_p50 = 640;
        l_p90 = 1800;
        l_p99 = 4200;
        l_p999 = 9000;
        l_max = 8800;
        l_ex_ns = 8800;
        l_ex_trace = 0x2bad5eed;
      }
    in
    let rollup_empty =
      {
        Proto.l_count = 0;
        l_p50 = 0;
        l_p90 = 0;
        l_p99 = 0;
        l_p999 = 0;
        l_max = 0;
        l_ex_ns = 0;
        l_ex_trace = 0;
      }
    in
    let tenant_rows =
      [
        {
          Proto.r_tenant = "t0";
          r_shard = 0;
          r_paths = 5;
          r_pi = 2;
          r_ops = 9;
          r_add_p50 = 500;
          r_add_p99 = 900;
          r_healthy = true;
        };
        {
          Proto.r_tenant = "b.2_x-Y";
          r_shard = 3;
          r_paths = 0;
          r_pi = 0;
          r_ops = 1;
          r_add_p50 = 0;
          r_add_p99 = 0;
          r_healthy = false;
        };
      ]
    in
    let replies : Proto.reply list =
      [
        Ok (Proto.R_hello Proto.version);
        Ok Proto.R_pong;
        Ok Proto.R_bye;
        Ok (Proto.R_open rep);
        Ok (Proto.R_path 7);
        Ok (Proto.R_removed 0);
        Ok (Proto.R_arc 3);
        Ok (Proto.R_report rep);
        Ok (Proto.R_pi rep.Proto.pi);
        Ok (Proto.R_color 1);
        Ok (Proto.R_stats (Engine.stats eng));
        Ok (Proto.R_health health);
        Ok (Proto.R_outcomes { outcomes = wire_outcomes b; after = rep });
        Ok
          (Proto.R_outcomes
             {
               outcomes =
                 Array.of_list (List.map (fun e -> Error e) every_error);
               after = rep;
             });
        Ok (Proto.R_snapshot (Engine.instance eng));
        Ok Proto.R_evicted;
        Ok
          (Proto.R_dstats
             {
               Proto.d_shards = 4;
               d_sessions = 2;
               d_add = rollup_ex;
               d_remove = rollup_empty;
               d_tenants = tenant_rows;
             });
        Ok
          (Proto.R_dstats
             {
               Proto.d_shards = 1;
               d_sessions = 0;
               d_add = rollup_empty;
               d_remove = rollup_empty;
               d_tenants = [];
             });
        Ok
          (Proto.R_dhealth
             { Proto.dh_healthy = false; dh_sessions = 2; dh_unhealthy = [ "a"; "b.2_x-Y" ] });
        Ok (Proto.R_dhealth { Proto.dh_healthy = true; dh_sessions = 0; dh_unhealthy = [] });
        Ok (Proto.R_trace "{\"traceEvents\": [\n  {\"ph\": \"X\"}\n]}\n");
      ]
      @ List.map (fun e -> (Error e : Proto.reply)) every_error
    in
    let encodings = [ false; true ] in
    let round_trip_req json r =
      let tag = if json then "json" else "text" in
      let enc = Proto.encode_request ~json r in
      match Proto.decode_request enc with
      | exception e ->
        fail "request decode raised (%s): %s" tag (Printexc.to_string e)
      | Error e -> fail "request decode failed (%s): %s" tag (errs e)
      | Ok r' when not (req_equal r r') ->
        fail "request round trip changed the message (%s)" tag
      | Ok _ -> (
        let f = Wire.frame enc in
        match Wire.unframe f 0 with
        | Ok (p, off) when p = enc && off = String.length f -> None
        | Ok _ -> fail "frame round trip changed the payload (%s)" tag
        | Error e -> fail "frame round trip failed (%s): %s" tag (errs e))
    in
    let round_trip_reply json r =
      let tag = if json then "json" else "text" in
      let enc = Proto.encode_reply ~json r in
      match Proto.decode_reply enc with
      | exception e ->
        fail "reply decode raised (%s): %s" tag (Printexc.to_string e)
      | Error e -> fail "reply decode failed (%s): %s" tag (errs e)
      | Ok d when not (reply_equal r d) ->
        fail "reply round trip changed the message (%s)" tag
      | Ok _ -> None
    in
    (* Trace-context field: a carried ctx round-trips (trace and span id;
       the parent id is deliberately not wire-carried), and an absent ctx
       leaves the frame byte-identical to the pre-context protocol —
       that byte-equality IS the old-peer interoperability guarantee. *)
    let ctx_round_trip () =
      let g = Ctx.generator 42 in
      let root = Ctx.root g in
      let ctx = Ctx.child g root in
      let per_encoding json =
        let tag = if json then "json" else "text" in
        let req = Proto.Submit { tenant = t; ops = s.Subject.ops } in
        let enc = Proto.encode_request ~json ~ctx req in
        match Proto.decode_request_ctx enc with
        | exception e ->
          fail "ctx decode raised (%s): %s" tag (Printexc.to_string e)
        | Error e -> fail "ctx decode failed (%s): %s" tag (errs e)
        | Ok (req', ctx') ->
          if not (req_equal req req') then
            fail "ctx-carrying request changed the message (%s)" tag
          else if ctx'.Ctx.trace_id <> ctx.Ctx.trace_id then
            fail "trace id did not survive the wire (%s)" tag
          else if ctx'.Ctx.span_id <> ctx.Ctx.span_id then
            fail "span id did not survive the wire (%s)" tag
          else if ctx'.Ctx.parent_id <> 0 then
            fail "parent id leaked onto the wire (%s)" tag
          else begin
            let rep : Proto.reply = Ok Proto.R_pong in
            let renc = Proto.encode_reply ~json ~ctx rep in
            match Proto.decode_reply_ctx renc with
            | exception e ->
              fail "reply ctx decode raised (%s): %s" tag (Printexc.to_string e)
            | Error e -> fail "reply ctx decode failed (%s): %s" tag (errs e)
            | Ok (rep', rctx) ->
              if not (reply_equal rep rep') then
                fail "ctx-carrying reply changed the message (%s)" tag
              else if rctx.Ctx.trace_id <> ctx.Ctx.trace_id then
                fail "reply trace id did not survive the wire (%s)" tag
              else if
                Proto.encode_request ~json ~ctx:Ctx.none req
                <> Proto.encode_request ~json req
              then fail "Ctx.none changed the encoding (%s)" tag
              else begin
                match Proto.decode_request_ctx (Proto.encode_request ~json req) with
                | Ok (_, c) when Ctx.is_none c -> None
                | Ok _ -> fail "absent ctx decoded as a real context (%s)" tag
                | Error e -> fail "untraced frame rejected (%s): %s" tag (errs e)
                | exception e ->
                  fail "untraced decode raised (%s): %s" tag (Printexc.to_string e)
              end
          end
      in
      first per_encoding encodings
    in
    (* Hand-built frames with a damaged ctx field: every one is a protocol
       error (decoders stay total), never an [Ok] and never an exception. *)
    let ctx_corruptions () =
      let cases =
        [
          ("non-hex trace id", "wlrpc 1 ctx=zz:1 ping\n");
          ("zero trace id", "wlrpc 1 ctx=0:5 ping\n");
          ("missing span id", "wlrpc 1 ctx=12 ping\n");
          ("empty span id", "wlrpc 1 ctx=12: ping\n");
          ("empty value", "wlrpc 1 ctx= ping\n");
          ("three fields", "wlrpc 1 ctx=1:2:3 ping\n");
          ("oversized id", "wlrpc 1 ctx=12345678123456781:2 ping\n");
          ("signed id", "wlrpc 1 ctx=-1:2 ping\n");
          ("duplicate ctx", "wlrpc 1 ctx=1:2 ctx=3:4 ping\n");
          ("ctx after verb", "wlrpc 1 ping ctx=1:2\n");
          ("json non-string ctx", "{\"wlrpc\": 1, \"ctx\": 5, \"verb\": \"ping\"}");
          ("json malformed ctx", "{\"wlrpc\": 1, \"ctx\": \"junk\", \"verb\": \"ping\"}");
          ("json empty ctx", "{\"wlrpc\": 1, \"ctx\": \"\", \"verb\": \"ping\"}");
          ("json zero trace", "{\"wlrpc\": 1, \"ctx\": \"0:5\", \"verb\": \"ping\"}");
        ]
      in
      first
        (fun (name, payload) ->
          let via what decode =
            match decode payload with
            | exception e ->
              fail "ctx corruption %s: %s raised %s" name what
                (Printexc.to_string e)
            | Error _ -> None
            | Ok _ -> fail "ctx corruption %s: %s accepted the frame" name what
          in
          match via "decode_request_ctx" Proto.decode_request_ctx with
          | Some _ as failure -> failure
          | None -> via "decode_request" Proto.decode_request)
        cases
    in
    (* Known constructors and verbs with a missing or ill-typed field, and
       an invalid tenant in a tenant list: protocol errors in both
       encodings, never a default value. *)
    let malformed_replies () =
      let cases =
        [
          ("bad_index without index", "wlrpc 1 err 68 bad_index\n");
          ("bad_index with a word index", "wlrpc 1 err 68 bad_index x path\n");
          ( "json bad_index without index",
            "{\"wlrpc\": 1, \"err\": {\"code\": 68, \"ctor\": \"bad_index\", \"what\": \"path\"}}" );
          ("dhealth invalid tenant", "wlrpc 1 ok dhealth false 1 1 a/b\n");
          ( "json dhealth invalid tenant",
            "{\"wlrpc\": 1, \"ok\": {\"verb\": \"dhealth\", \"healthy\": false, \
             \"sessions\": 1, \"unhealthy\": [\"bad tenant\"]}}" );
        ]
      in
      first
        (fun (name, payload) ->
          match Proto.decode_reply_ctx payload with
          | exception e -> fail "malformed %s: decode raised %s" name (Printexc.to_string e)
          | Error _ -> None
          | Ok _ -> fail "malformed %s: decode accepted the frame" name)
        cases
    in
    let base =
      Wire.frame
        (Proto.encode_request (Proto.Open { tenant = t; instance = inst }))
    in
    let n = String.length base in
    let expect_frame_error name buf =
      match Wire.unframe buf 0 with
      | exception e ->
        fail "%s: unframe raised %s" name (Printexc.to_string e)
      | Error (Error.Parse _) -> None
      | Error e -> fail "%s: want Parse error, got %s" name (errs e)
      | Ok _ -> fail "%s: corrupt frame decoded" name
    in
    let corruptions =
      [
        ("empty buffer", "");
        ("truncated prefix (1)", String.sub base 0 1);
        ("truncated prefix (3)", String.sub base 0 3);
        ("truncated payload", String.sub base 0 (n - 1));
        ("half payload", String.sub base 0 (4 + ((n - 4) / 2)));
        ("zero length", "\000\000\000\000" ^ String.sub base 4 (n - 4));
        ("oversized length", "\255\255\255\255" ^ String.sub base 4 (n - 4));
        ("garbage prefix", "garbage!" ^ base);
      ]
    in
    let flipped_payload () =
      (* A flipped byte keeps the frame well-formed: unframe must succeed
         and the payload decoder must stay total on the damaged bytes. *)
      let buf = Bytes.of_string base in
      let i = 4 + ((Bytes.length buf - 4) / 2) in
      Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor 0xff));
      match Wire.unframe (Bytes.to_string buf) 0 with
      | exception e -> fail "flipped byte: unframe raised %s" (Printexc.to_string e)
      | Error e -> fail "flipped byte: unframe failed: %s" (errs e)
      | Ok (p, _) -> (
        match Proto.decode_request p with
        | Ok _ | Error _ -> None
        | exception e ->
          fail "flipped byte: decode raised %s" (Printexc.to_string e))
    in
    let truncated_payloads () =
      let enc = Proto.encode_request (Proto.Submit { tenant = t; ops = s.Subject.ops }) in
      let m = String.length enc in
      let rec go k =
        if k >= m then None
        else
          match Proto.decode_request (String.sub enc 0 k) with
          | Ok _ | Error _ -> go (k + (1 + (m / 7)))
          | exception e ->
            fail "truncated payload at %d: decode raised %s" k
              (Printexc.to_string e)
      in
      go 0
    in
    let stream () =
      (* Consecutive frames in one buffer come back as the same payloads. *)
      let payloads = List.map (fun r -> Proto.encode_request r) reqs in
      match Wire.unframe_all (String.concat "" (List.map Wire.frame payloads)) with
      | Ok ps when ps = payloads -> None
      | Ok _ -> fail "unframe_all changed the payload stream"
      | Error e -> fail "unframe_all failed on a valid stream: %s" (errs e)
    in
    first
      (fun f -> f ())
      ([
         (fun () ->
           first
             (fun json -> first (round_trip_req json) reqs)
             encodings);
         (fun () ->
           first
             (fun json -> first (round_trip_reply json) replies)
             encodings);
         ctx_round_trip;
         ctx_corruptions;
         malformed_replies;
         (fun () ->
           first (fun (name, buf) -> expect_frame_error name buf) corruptions);
         flipped_payload;
         truncated_payloads;
         stream;
       ])
  in
  {
    name = "wlrpc_frame";
    doc =
      "wlrpc/1 codec round trips (both encodings, every error constructor, \
       trace-context field) and totality on truncated/oversized/garbage \
       frames, mutated ctx tokens and replies missing a field";
    generate;
    check;
  }

(* --- theorem sweeps ----------------------------------------------------------- *)

(* Each sweep splits into a deterministic [generate] (seed to instance) and
   a [property] checked on the generated instance.  Properties guard their
   own applicability (returning [None] off-hypothesis) so that they stay
   meaningful on arbitrary instances — the shrinker re-runs them on
   mutilated copies of a failing instance, and an off-class copy must
   read as "claim not violated", not as a spurious failure. *)

let theorem1_generate seed =
  let rng = Prng.create seed in
  let dag = Generators.gnp_no_internal_cycle rng 30 0.12 in
  Path_gen.random_instance rng dag 20

let theorem1_property inst =
  if Wl_dag.Internal_cycle.has_internal_cycle (Instance.dag inst) then None
  else
    match Theorem1.color_result inst with
    | Error _ -> Some "unexpected case C"
    | Ok a ->
      if not (Assignment.is_valid inst a) then Some "invalid assignment"
      else if Assignment.n_wavelengths (Assignment.normalize a) <> Load.pi inst
      then Some "w <> pi"
      else None

(* Theorem 2 and case C are claims about the DAG alone; their instances
   carry an empty family and the property rebuilds the gap family. *)
let dag_only_generate seed =
  let rng = Prng.create seed in
  let dag = Generators.gnp_dag rng 16 0.3 in
  Instance.make dag []

let theorem2_property inst =
  let dag = Instance.dag inst in
  match Theorem2.build dag with
  | None ->
    if Wl_dag.Internal_cycle.has_internal_cycle dag then
      Some "no family despite internal cycle"
    else None
  | Some inst ->
    if Load.pi inst <> 2 then Some "pi <> 2"
    else if Bounds.heuristic_upper inst < 3 then Some "w < 3?"
    else if
      not (Wl_conflict.Graph_props.is_cycle_graph (Conflict_of.build inst))
    then Some "conflict graph not a cycle"
    else None

let theorem6_generate seed =
  let rng = Prng.create seed in
  let dag = Generators.upp_one_internal_cycle rng () in
  Instance.make dag (dedup (Path_gen.random_family rng dag 16))

let theorem6_property inst =
  let c = Classify.classify (Instance.dag inst) in
  if not (c.Classify.is_upp && c.Classify.n_internal_cycles = 1) then None
  else
    match Theorem6.color_with_stats ~check:false inst with
    | exception e -> Some (Printexc.to_string e)
    | a, stats ->
      if not (Assignment.is_valid inst a) then Some "invalid assignment"
      else if stats.Theorem6.n_colors > Theorem6.upper_bound stats.Theorem6.pi
      then Some "bound exceeded"
      else None

let theorem6_multi_generate seed =
  let rng = Prng.create seed in
  let cycles = 1 + (seed mod 4) in
  let dag = Generators.upp_internal_cycles rng ~cycles () in
  Instance.make dag (dedup (Path_gen.random_family rng dag 16))

let theorem6_multi_property inst =
  let c = Classify.classify (Instance.dag inst) in
  let cycles = c.Classify.n_internal_cycles in
  if not (c.Classify.is_upp && cycles >= 1) then None
  else
    match Theorem6_multi.color ~check:false inst with
    | exception e -> Some (Printexc.to_string e)
    | a ->
      if not (Assignment.is_valid inst a) then Some "invalid assignment"
      else if
        Assignment.n_wavelengths (Assignment.normalize a)
        > Theorem6_multi.upper_bound ~n_internal_cycles:cycles (Load.pi inst)
      then Some "iterated bound exceeded"
      else None

let case_c_property inst =
  let dag = Instance.dag inst in
  match Theorem2.build dag with
  | None -> None
  | Some inst -> (
    match Theorem1.color_result inst with
    | Ok _ -> Some "theorem 1 succeeded on a gap family"
    | Error (chain, junction) -> (
      match Theorem1.witness_internal_cycle inst ~chain ~junction with
      | None -> Some "no witness extracted"
      | Some walk ->
        let can = Wl_dag.Internal_cycle.canonicalize dag walk in
        if Wl_dag.Internal_cycle.verify_canonical dag can then None
        else Some "witness failed verification"))

let grooming_generate seed =
  let rng = Prng.create seed in
  let dag = Generators.gnp_no_internal_cycle rng 14 0.2 in
  Path_gen.random_instance rng dag 10

let grooming_property inst =
  if Wl_dag.Internal_cycle.has_internal_cycle (Instance.dag inst) then None
  else begin
    let w = max 1 (Load.pi inst / 2) in
    match Grooming.satisfy inst ~w with
    | None -> Some "no selection"
    | Some (sel, assignment) ->
      if sel.Grooming.load > w then Some "selection over load"
      else if Assignment.n_wavelengths assignment > w then Some "over w colors"
      else None
  end

let sweep name doc generate property =
  {
    name;
    doc;
    generate = (fun seed -> Subject.make (generate seed));
    check = (fun s -> property s.Subject.inst);
  }

let sweeps =
  [
    sweep "thm1"
      "Theorem 1 on random internal-cycle-free DAGs: a valid assignment \
       with exactly pi colors"
      theorem1_generate theorem1_property;
    sweep "thm2"
      "Theorem 2 on random DAGs: an internal cycle yields a family with \
       pi = 2 and an odd-cycle conflict graph (w = 3)"
      dag_only_generate theorem2_property;
    sweep "thm6"
      "Theorem 6 on random one-internal-cycle UPP-DAGs: valid and within \
       ceil(4 pi / 3)"
      theorem6_generate theorem6_property;
    sweep "thm6multi"
      "Iterated Theorem 6 on random UPP-DAGs with 1-4 internal cycles: \
       valid and within the iterated bound"
      theorem6_multi_generate theorem6_multi_property;
    sweep "casec"
      "Theorem 2 families drive the Theorem 1 cascade into case C, and the \
       extracted internal-cycle witness verifies"
      dag_only_generate case_c_property;
    sweep "grooming"
      "Grooming.satisfy on random internal-cycle-free DAGs stays within w"
      grooming_generate grooming_property;
  ]

(* --- the self-test ---------------------------------------------------------- *)

let selftest =
  let generate seed =
    let rng = Prng.create seed in
    let dag = Generators.gnp_no_internal_cycle rng 6 0.5 in
    Subject.make (Path_gen.random_instance rng dag 4)
  in
  let check (s : Subject.t) =
    let pi = Load.pi s.Subject.inst in
    if pi >= 2 then
      Some (Printf.sprintf "load %d >= 2 (deliberate self-test failure)" pi)
    else None
  in
  {
    name = "selftest";
    doc =
      "Deliberately false claim (load < 2) exercising the shrink pipeline; \
       not part of the default set";
    generate;
    check;
  }

let all =
  [
    thm1_dsatur;
    solver_exact;
    engine;
    serial;
    invariants;
    routing_packing;
    client_vs_engine;
    wlrpc_frame;
  ]
  @ sweeps

let find name = List.find_opt (fun o -> o.name = name) (all @ [ selftest ])

let run oracle seed =
  match oracle.check (oracle.generate seed) with
  | None -> None
  | Some reason -> Some (seed, reason)
  | exception e -> Some (seed, Printexc.to_string e)
