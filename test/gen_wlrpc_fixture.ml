(* Emit every wlrpc/1 frame shape on stdout, byte for byte.

   Every request and reply variant, and every [Error.t] constructor both
   as an error reply and as an outcome line, is encoded in both
   encodings, once untraced and once carrying a trace context from the
   seeded generator.  Values are fixed (a four-vertex line instance,
   dyadic health rates), so the output is deterministic.  The result is
   diffed against wlrpc_frames.golden: any codec change that moves a
   byte of an existing frame shows up here. *)

open Wl_core
module Proto = Wl_serve.Proto
module Engine = Wl_engine.Engine
module Ctx = Wl_obs.Ctx
module Digraph = Wl_digraph.Digraph

let line3 () =
  let g = Digraph.create () in
  for _ = 0 to 3 do
    ignore (Digraph.add_vertex g)
  done;
  List.iter (fun (a, b) -> ignore (Digraph.add_arc g a b)) [ (0, 1); (1, 2); (2, 3) ];
  match Instance.of_vertex_seqs g [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ] with
  | Ok i -> i
  | Error e ->
    prerr_endline ("gen_wlrpc_fixture: " ^ Error.to_string e);
    exit 1

let every_error =
  [
    Error.Parse { line = 3; msg = "unexpected token \\ and\nan embedded newline" };
    Error.Invalid_path "not a dipath";
    Error.Cyclic "back arc 4 -> 1";
    Error.Bad_index { what = "path"; index = 41 };
    Error.Invalid_op "remove of a dead path";
    Error.Precondition "tenant id must match [A-Za-z0-9_.-]";
    Error.Unsupported_version 9;
    Error.Io "  two  spaces and trailing ";
    Error.Parse { line = 0; msg = "" };
  ]

let requests inst =
  let t = "gold" in
  [
    ("hello", Proto.Hello Proto.version);
    ("ping", Proto.Ping);
    ("shutdown", Proto.Shutdown);
    ("open", Proto.Open { tenant = t; instance = inst });
    ("add_path", Proto.Add_path { tenant = t; vertices = [ 0; 1; 2 ] });
    ("add_path empty", Proto.Add_path { tenant = t; vertices = [] });
    ("remove_path", Proto.Remove_path { tenant = t; id = 1 });
    ("add_arc", Proto.Add_arc { tenant = t; tail = 3; head = 0 });
    ( "submit",
      Proto.Submit
        {
          tenant = t;
          ops = [ Engine.Add_path [ 0; 1 ]; Engine.Remove_path 1; Engine.Add_arc (3, 0) ];
        } );
    ("report", Proto.Report { tenant = t });
    ("pi", Proto.Pi { tenant = t });
    ("color_of", Proto.Color_of { tenant = t; id = 2 });
    ("stats", Proto.Stats { tenant = t });
    ("health", Proto.Health { tenant = t });
    ("snapshot", Proto.Snapshot { tenant = t });
    ("evict", Proto.Evict { tenant = t });
    ("dstats", Proto.Dstats);
    ("dhealth", Proto.Dhealth);
    ("tracedump", Proto.Trace_dump { last = 64 });
  ]

let replies inst : (string * Proto.reply) list =
  let rep = { Proto.n_wavelengths = 2; pi = 2; optimal = true; method_name = "theorem1" } in
  let stats =
    {
      Engine.ops = 9;
      warm_hits = 7;
      fresh_colors = 1;
      repairs = 1;
      repair_flips = 3;
      shrink_recolors = 0;
      warm_removes = 2;
      fallbacks = 0;
      full_solves = 1;
      rejected = 1;
    }
  in
  let health =
    {
      Proto.healthy = true;
      add_p50 = 120;
      add_p99 = 3400;
      remove_p50 = 5;
      remove_p99 = 97;
      warm_hit_recent = 0.5;
      warm_hit_lifetime = 0.25;
      fallback_streak = 1;
    }
  in
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
  let row tenant shard healthy =
    {
      Proto.r_tenant = tenant;
      r_shard = shard;
      r_paths = 5;
      r_pi = 2;
      r_ops = 9;
      r_add_p50 = 500;
      r_add_p99 = 900;
      r_healthy = healthy;
    }
  in
  [
    ("hello", Ok (Proto.R_hello Proto.version));
    ("pong", Ok Proto.R_pong);
    ("bye", Ok Proto.R_bye);
    ("open", Ok (Proto.R_open rep));
    ("path", Ok (Proto.R_path 7));
    ("removed", Ok (Proto.R_removed 0));
    ("arc", Ok (Proto.R_arc 3));
    ("report", Ok (Proto.R_report rep));
    ("pi", Ok (Proto.R_pi 2));
    ("color", Ok (Proto.R_color 1));
    ("stats", Ok (Proto.R_stats stats));
    ("health", Ok (Proto.R_health health));
    ( "outcomes",
      Ok
        (Proto.R_outcomes
           {
             outcomes =
               Array.of_list
                 ([ Ok (Proto.O_path 2); Ok (Proto.O_removed 1); Ok (Proto.O_arc 3) ]
                 @ List.map (fun e -> Error e) every_error);
             after = rep;
           }) );
    ("outcomes empty", Ok (Proto.R_outcomes { outcomes = [||]; after = rep }));
    ("snapshot", Ok (Proto.R_snapshot inst));
    ("evicted", Ok Proto.R_evicted);
    ( "dstats",
      Ok
        (Proto.R_dstats
           {
             Proto.d_shards = 4;
             d_sessions = 2;
             d_add = rollup_ex;
             d_remove = rollup_empty;
             d_tenants = [ row "gold" 0 true; row "b.2_x-Y" 3 false ];
           }) );
    ( "dstats empty",
      Ok
        (Proto.R_dstats
           {
             Proto.d_shards = 1;
             d_sessions = 0;
             d_add = rollup_empty;
             d_remove = rollup_empty;
             d_tenants = [];
           }) );
    ( "dhealth",
      Ok
        (Proto.R_dhealth
           { Proto.dh_healthy = false; dh_sessions = 2; dh_unhealthy = [ "a"; "b.2_x-Y" ] }) );
    ( "dhealth empty",
      Ok (Proto.R_dhealth { Proto.dh_healthy = true; dh_sessions = 0; dh_unhealthy = [] }) );
    ("trace", Ok (Proto.R_trace "{\"traceEvents\": [\n  {\"ph\": \"X\"}\n]}\n"));
  ]
  @ List.map (fun e -> ("err", (Error e : Proto.reply))) every_error

let emit enc kind label ctx payload =
  Printf.printf "=== %s %s %s%s (%d bytes)\n%s" enc kind label
    (if Ctx.is_none ctx then "" else " +ctx")
    (String.length payload) payload;
  if not (String.ends_with ~suffix:"\n" payload) then print_newline ()

let () =
  let inst = line3 () in
  let g = Ctx.generator 42 in
  let traced = Ctx.child g (Ctx.root g) in
  List.iter
    (fun json ->
      let enc = if json then "json" else "text" in
      List.iter
        (fun ctx ->
          List.iter
            (fun (label, r) -> emit enc "request" label ctx (Proto.encode_request ~json ~ctx r))
            (requests inst);
          List.iter
            (fun (label, r) -> emit enc "reply" label ctx (Proto.encode_reply ~json ~ctx r))
            (replies inst))
        [ Ctx.none; traced ])
    [ false; true ]
