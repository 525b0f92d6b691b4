(* Tests for the wlrpc/1 service stack: wire framing totality, protocol
   codecs (text and JSON, error frames included), address parsing, the
   loopback client against a live engine, a real unix-socket daemon
   (concurrent connections against bare sessions, a stalled peer, a round
   trip ending in a graceful drain), a drain under load, and the client's
   protocol-version check.  The statistical/differential
   side lives in the client_vs_engine and wlrpc_frame fuzz oracles; these
   are the deterministic anchors. *)

open Helpers
open Wl_core
module Engine = Wl_engine.Engine
module Wire = Wl_serve.Wire
module Proto = Wl_serve.Proto
module Shard = Wl_serve.Shard
module Server = Wl_serve.Server
module Client = Wl_serve.Client

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

let line3 () =
  (* 0 -> 1 -> 2 -> 3 with two overlapping paths: pi = 2, w = 2. *)
  let g = Wl_digraph.Digraph.create () in
  for _ = 0 to 3 do
    ignore (Wl_digraph.Digraph.add_vertex g)
  done;
  List.iter (fun (a, b) -> ignore (Wl_digraph.Digraph.add_arc g a b))
    [ (0, 1); (1, 2); (2, 3) ];
  ok_exn "line3" (Instance.of_vertex_seqs g [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ])

(* --- wire framing ----------------------------------------------------------- *)

let test_wire () =
  let f = Wire.frame "hello" in
  check_int "frame length" (String.length f) 9;
  (match Wire.unframe f 0 with
  | Ok (p, off) ->
    Alcotest.(check string) "payload" "hello" p;
    check_int "offset" off 9
  | Error e -> Alcotest.failf "unframe: %s" (Error.to_string e));
  (match Wire.unframe_all (f ^ Wire.frame "world") with
  | Ok ps -> Alcotest.(check (list string)) "stream" [ "hello"; "world" ] ps
  | Error e -> Alcotest.failf "unframe_all: %s" (Error.to_string e));
  let parse_error what = function
    | Error (Error.Parse _) -> ()
    | Error e -> Alcotest.failf "%s: want Parse, got %s" what (Error.to_string e)
    | Ok _ -> Alcotest.failf "%s: decoded a corrupt frame" what
  in
  parse_error "empty" (Wire.unframe "" 0);
  parse_error "short prefix" (Wire.unframe "\000\000" 0);
  parse_error "zero length" (Wire.unframe "\000\000\000\000x" 0);
  parse_error "oversized" (Wire.unframe "\255\255\255\255x" 0);
  parse_error "truncated payload" (Wire.unframe (String.sub f 0 8) 0);
  check "writer refuses empty" true
    (match Wire.frame "" with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- protocol codecs --------------------------------------------------------- *)

let test_tenants () =
  check "plain ok" true (Proto.tenant_ok "build42");
  check "dots/dashes ok" true (Proto.tenant_ok "a.b-c_d");
  check "empty rejected" false (Proto.tenant_ok "");
  check "space rejected" false (Proto.tenant_ok "a b");
  check "newline rejected" false (Proto.tenant_ok "a\nb");
  check "slash rejected" false (Proto.tenant_ok "a/b");
  check "long rejected" false (Proto.tenant_ok (String.make 129 'x'));
  check "128 ok" true (Proto.tenant_ok (String.make 128 'x'))

let every_error =
  [
    Error.Parse { line = 7; msg = "bad token\nwith \\ escapes" };
    Error.Invalid_path "not a dipath";
    Error.Cyclic "cycle 1 -> 2 -> 1";
    Error.Bad_index { what = "path"; index = 5 };
    Error.Invalid_op "dead handle";
    Error.Precondition "tenant id";
    Error.Unsupported_version 3;
    Error.Io "broken pipe";
    Error.Io "  two  spaces and trailing ";
    Error.Invalid_op "";
  ]

let test_error_frames () =
  (* Every constructor round-trips both encodings, and the frame carries
     the same sysexits code the CLI would exit with. *)
  List.iter
    (fun e ->
      List.iter
        (fun json ->
          match Proto.decode_reply (Proto.encode_reply ~json (Error e)) with
          | Ok (Error e') ->
            check "same error" true (e = e');
            check_int "same wire code" (Error.to_code e) (Error.to_code e')
          | Ok (Ok _) -> Alcotest.fail "error frame decoded as success"
          | Error e' ->
            Alcotest.failf "error frame did not decode: %s" (Error.to_string e'))
        [ false; true ])
    every_error

(* Both encodings decode by one rule: message fields keep their spaces,
   floats are exact, a known constructor or verb missing a field is a
   protocol error, tenant lists are checked, and only an unknown
   constructor degrades through the shared code table. *)
let test_decode_rules () =
  let h =
    {
      Proto.healthy = false; add_p50 = 1; add_p99 = 2; remove_p50 = 3; remove_p99 = 4;
      warm_hit_recent = 1. /. 3.; warm_hit_lifetime = 0.1; fallback_streak = 5;
    }
  in
  List.iter
    (fun json ->
      match Proto.decode_reply (Proto.encode_reply ~json (Ok (Proto.R_health h))) with
      | Ok (Ok (Proto.R_health h')) -> check "health rates exact" true (h = h')
      | _ -> Alcotest.fail "health reply did not round-trip")
    [ false; true ];
  let rejected what payload =
    check (what ^ " rejected") true (Result.is_error (Proto.decode_reply payload))
  in
  rejected "text bad_index without index" "wlrpc 1 err 68 bad_index\n";
  rejected "json bad_index without index"
    {|{"wlrpc": 1, "err": {"code": 68, "ctor": "bad_index", "what": "path"}}|};
  rejected "text dhealth bad tenant" "wlrpc 1 ok dhealth false 1 1 a/b\n";
  rejected "json dhealth bad tenant"
    {|{"wlrpc": 1, "ok": {"verb": "dhealth", "healthy": false, "sessions": 1, "unhealthy": ["bad tenant"]}}|};
  rejected "text trailing token" "wlrpc 1 ok path 3 4\n";
  rejected "text short outcome body" "wlrpc 1 ok outcomes 2 1 1 true theorem-1\noutcome path 0\n";
  (* an instance with more vertices than a graph may hold is the reader's
     Parse error, in either encoding *)
  List.iter
    (fun payload ->
      match Proto.decode_request_ctx payload with
      | Error e -> check "vertex limit named" true (contains (Error.to_string e) "at most 1048576")
      | Ok _ -> Alcotest.failf "oversized open accepted: %s" payload)
    [
      "wlrpc 1 open t\ndag 4611686018427387903\n";
      {|{"wlrpc": 1, "verb": "open", "tenant": "t", "instance": {"vertices": 4611686018427387903}}|};
    ];
  List.iter
    (fun payload ->
      match Proto.decode_reply payload with
      | Ok (Error e) -> check_int "unknown constructor keeps its code" 69 (Error.to_code e)
      | _ -> Alcotest.failf "unknown constructor did not degrade: %s" payload)
    [
      "wlrpc 1 err 69 from_the_future dead handle\n";
      {|{"wlrpc": 1, "err": {"code": 69, "ctor": "from_the_future", "msg": "dead handle"}}|};
    ]

let test_request_roundtrip () =
  let inst = line3 () in
  let reqs =
    [
      Proto.Hello 1;
      Proto.Ping;
      Proto.Shutdown;
      Proto.Add_path { tenant = "t"; vertices = [ 0; 1; 2 ] };
      Proto.Remove_path { tenant = "t"; id = 0 };
      Proto.Add_arc { tenant = "t"; tail = 3; head = 0 };
      Proto.Submit
        { tenant = "t"; ops = [ Engine.Add_path [ 0; 1 ]; Engine.Remove_path 1 ] };
      Proto.Report { tenant = "t" };
      Proto.Pi { tenant = "t" };
      Proto.Color_of { tenant = "t"; id = 1 };
      Proto.Stats { tenant = "t" };
      Proto.Health { tenant = "t" };
      Proto.Snapshot { tenant = "t" };
      Proto.Evict { tenant = "t" };
    ]
  in
  List.iter
    (fun json ->
      List.iter
        (fun r ->
          match Proto.decode_request (Proto.encode_request ~json r) with
          | Ok r' -> check "request round trip" true (r = r')
          | Error e -> Alcotest.failf "decode: %s" (Error.to_string e))
        reqs;
      (* Open carries an instance; compare its serialized form. *)
      match
        Proto.decode_request
          (Proto.encode_request ~json (Proto.Open { tenant = "t"; instance = inst }))
      with
      | Ok (Proto.Open { tenant; instance }) ->
        Alcotest.(check string) "open tenant" "t" tenant;
        Alcotest.(check string) "open instance" (Serial.to_string inst)
          (Serial.to_string instance)
      | Ok _ -> Alcotest.fail "open decoded as another verb"
      | Error e -> Alcotest.failf "open decode: %s" (Error.to_string e))
    [ false; true ];
  check "bad tenant unrepresentable" true
    (match Proto.encode_request (Proto.Report { tenant = "a b" }) with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_addresses () =
  let round s expect =
    match Server.address_of_string s with
    | Ok a -> Alcotest.(check string) s expect (Server.address_to_string a)
    | Error e -> Alcotest.failf "%s: %s" s (Error.to_string e)
  in
  round "unix:/tmp/wld.sock" "unix:/tmp/wld.sock";
  round "/tmp/wld.sock" "unix:/tmp/wld.sock";
  round "./wld.sock" "unix:./wld.sock";
  round "tcp:localhost:7070" "tcp:localhost:7070";
  round "localhost:7070" "tcp:localhost:7070";
  List.iter
    (fun s ->
      check ("reject " ^ s) true
        (Result.is_error (Server.address_of_string s)))
    [ ""; "unix:"; "tcp:"; "tcp:host"; "tcp:host:0"; "tcp:host:notaport"; "plain" ]

(* --- loopback client --------------------------------------------------------- *)

let test_loopback () =
  let c = Client.local () in
  ok_exn "ping" (Client.ping c);
  let s = ok_exn "open" (Client.open_session c ~tenant:"t1" (line3 ())) in
  check_int "pi" (ok_exn "pi" (Client.pi s)) 2;
  let id = ok_exn "add" (Client.add_path s [ 0; 1 ]) in
  let r = ok_exn "report" (Client.report s) in
  check_int "w = pi" r.Proto.n_wavelengths r.Proto.pi;
  check "optimal" true r.Proto.optimal;
  let c0 = ok_exn "color" (Client.color_of s id) in
  check "color in palette" true (c0 >= 0 && c0 < r.Proto.n_wavelengths);
  (match Client.remove_path s 99 with
  | Error (Error.Bad_index _) -> ()
  | Error e -> Alcotest.failf "want Bad_index, got %s" (Error.to_string e)
  | Ok () -> Alcotest.fail "removed a path that never existed");
  ok_exn "remove" (Client.remove_path s id);
  let snap = ok_exn "snapshot" (Client.snapshot s) in
  check_int "snapshot paths" (Instance.n_paths snap) 2;
  let st = ok_exn "stats" (Client.stats s) in
  check_int "ops accepted" st.Engine.ops 2;
  let h = ok_exn "health" (Client.health s) in
  check "healthy" true h.Proto.healthy;
  ok_exn "evict" (Client.evict s);
  (match Client.pi s with
  | Error (Error.Invalid_op _) -> ()
  | _ -> Alcotest.fail "evicted session still answers");
  (* Sessions on a second tenant are independent. *)
  let s2 = ok_exn "open t2" (Client.open_session c ~tenant:"t2" (line3 ())) in
  check_int "t2 pi" (ok_exn "pi" (Client.pi s2)) 2;
  Client.close c;
  (match Client.ping c with
  | Error (Error.Invalid_op _) -> ()
  | _ -> Alcotest.fail "closed client still answers")

let test_loopback_json_and_batch () =
  let c = Client.local ~json:true ~shards:2 () in
  let s = ok_exn "open" (Client.open_session c ~tenant:"batch" (line3 ())) in
  let b =
    ok_exn "submit"
      (Client.submit s
         [ Engine.Add_path [ 0; 1 ]; Engine.Add_path [ 9; 9 ]; Engine.Remove_path 0 ])
  in
  check_int "outcomes" (Array.length b.Client.outcomes) 3;
  check "first accepted" true
    (match b.Client.outcomes.(0) with Ok (Proto.O_path _) -> true | _ -> false);
  check "second rejected" true (Result.is_error b.Client.outcomes.(1));
  check "third accepted" true
    (match b.Client.outcomes.(2) with Ok (Proto.O_removed 0) -> true | _ -> false);
  (* [0;1;2] is gone: the two survivors ([1;2;3], [0;1]) are arc-disjoint. *)
  check_int "after pi" b.Client.after.Proto.pi 1;
  Client.close c

(* --- one dispatch path ------------------------------------------------------- *)

let test_dispatch_matches_engine () =
  (* Figure 3's DAG has an internal cycle, so the warm path is off and a
     session solves once per dirty streak, when a report is read.  The
     loopback must count the solves a bare session counts, call for
     call. *)
  let fig3 = Wl_netgen.Figures.fig3 () in
  let base = Instance.make (Instance.dag fig3) [] in
  let round =
    List.map (fun p -> `Add (Wl_digraph.Dipath.vertices p)) (Instance.paths_list fig3)
    @ [ `Report ]
  in
  let bare = Engine.create base in
  ignore (Engine.report bare) (* an Open replies with a report *);
  let c = Client.local () in
  let s = ok_exn "open" (Client.open_session c ~tenant:"fig3" base) in
  List.iteri
    (fun k call ->
      (match call with
      | `Add vs ->
        ignore (ok_exn "engine add" (Engine.add_path bare vs));
        ignore (ok_exn "add" (Client.add_path s vs))
      | `Report ->
        ignore (Engine.report bare);
        ignore (ok_exn "report" (Client.report s))
      | `Remove id ->
        ok_exn "engine remove" (Engine.remove_path bare id);
        ok_exn "remove" (Client.remove_path s id));
      check
        (Printf.sprintf "call %d: stats = bare engine" k)
        true
        (ok_exn "stats" (Client.stats s) = Engine.stats bare))
    (round @ round @ [ `Remove 0 ]);
  check_int "one solve per dirty streak" 3 (Engine.stats bare).Engine.full_solves;
  Client.close c

(* --- one domain, many connections -------------------------------------------- *)

(* A tenant's churn: every path added in order, the oldest of each four
   removed after the fourth, and a report after every third mutation.
   [`Remove k] names the k-th add. *)
let churn_script paths =
  let ops = ref [] and mutations = ref 0 in
  let mutate op =
    ops := op :: !ops;
    incr mutations;
    if !mutations mod 3 = 0 then ops := `Report :: !ops
  in
  List.iteri
    (fun i vs ->
      mutate (`Add vs);
      if i mod 4 = 3 then mutate (`Remove (i - 3)))
    paths;
  List.rev !ops

(* Run a script through [add]/[remove]/[report]; returns the path ids in
   add order. *)
let run_script ~add ~remove ~report ops =
  let ids = ref [] in
  List.iter
    (function
      | `Add vs -> ids := add vs :: !ids
      | `Remove k -> remove (List.nth (List.rev !ids) k)
      | `Report -> report ())
    ops;
  List.rev !ids

let with_daemon f =
  let path = Filename.temp_file "wld_test" ".sock" in
  Sys.remove path;
  let shard = Shard.create ~shards:2 () in
  let srv = ok_exn "serve" (Server.serve ~shard (Server.Unix_sock path)) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop srv;
      ignore (Server.wait srv))
    (fun () -> f path)

(* Run [f] on a thread; [Error msg] if it raised. *)
let in_thread f =
  let failure = ref None in
  let th =
    Thread.create
      (fun () -> try f () with e -> failure := Some (Printexc.to_string e))
      ()
  in
  fun () ->
    Thread.join th;
    match !failure with None -> Ok () | Some msg -> Error msg

let test_concurrent_dispatch_matches_engine () =
  (* Two connections drive their own tenants at once, one on Figure 3's
     DAG and one on a random DAG with internal cycles, so full solves of
     one connection run while the other waits for the lock.  Every
     tenant must end exactly where a bare session replaying its ops
     ends: same stats, same report, same color for every live path. *)
  let fig3 = Wl_netgen.Figures.fig3 () in
  let rng = Prng.create 27 in
  let gnp = Wl_netgen.Generators.gnp_dag rng 14 0.3 in
  check "random DAG has internal cycles" true
    ((Wl_dag.Classify.classify gnp).Wl_dag.Classify.n_internal_cycles > 0);
  let vertices = List.map Wl_digraph.Dipath.vertices in
  let gnp_paths = vertices (Wl_netgen.Path_gen.random_family rng gnp 40) in
  let fig3_paths = vertices (Instance.paths_list fig3) in
  let tenants =
    [
      ("c0-fig3", Instance.make (Instance.dag fig3) [], churn_script (fig3_paths @ fig3_paths));
      ("c0-gnp", Instance.make gnp [], churn_script gnp_paths);
      ("c1-gnp", Instance.make gnp [], churn_script (List.rev gnp_paths));
      ("c1-fig3", Instance.make (Instance.dag fig3) [], churn_script fig3_paths);
    ]
  in
  with_daemon (fun path ->
      let addr = "unix:" ^ path in
      let drive json mine =
        let c = ok_exn "connect" (Client.connect ~json addr) in
        let out =
          List.map
            (fun (tenant, base, ops) ->
              let s = ok_exn "open" (Client.open_session c ~tenant base) in
              let ids =
                run_script ops
                  ~add:(fun vs -> ok_exn "add" (Client.add_path s vs))
                  ~remove:(fun id -> ok_exn "remove" (Client.remove_path s id))
                  ~report:(fun () -> ignore (ok_exn "report" (Client.report s)))
              in
              (s, ids))
            mine
        in
        Client.close c;
        out
      in
      let results = Array.make 2 [] in
      let joins =
        List.mapi
          (fun j json ->
            let mine = List.filteri (fun i _ -> i / 2 = j) tenants in
            in_thread (fun () -> results.(j) <- drive json mine))
          [ false; true ]
      in
      List.iter (fun join -> match join () with Ok () -> () | Error m -> Alcotest.fail m) joins;
      (* The clients are closed; read each tenant back over a fresh one. *)
      let c = ok_exn "connect" (Client.connect addr) in
      List.iter2
        (fun (tenant, base, ops) (_, ids) ->
          let bare = Engine.create base in
          ignore (Engine.report bare);
          let bare_ids =
            run_script ops
              ~add:(fun vs -> ok_exn "bare add" (Engine.add_path bare vs))
              ~remove:(fun id -> ok_exn "bare remove" (Engine.remove_path bare id))
              ~report:(fun () -> ignore (Engine.report bare))
          in
          check (tenant ^ ": same path ids") true (ids = bare_ids);
          let s = ok_exn "session" (Client.session c ~tenant) in
          check (tenant ^ ": report = bare engine") true
            (ok_exn "report" (Client.report s) = Proto.report_of_solver (Engine.report bare));
          check (tenant ^ ": stats = bare engine") true
            (ok_exn "stats" (Client.stats s) = Engine.stats bare);
          check (tenant ^ ": solved more than once") true
            ((Engine.stats bare).Engine.full_solves > 1);
          List.iter
            (fun (id, _) ->
              check_int
                (Printf.sprintf "%s: color of path %d" tenant id)
                (ok_exn "bare color" (Engine.color_of bare id))
                (ok_exn "color" (Client.color_of s id)))
            (Engine.live_paths bare))
        tenants
        (Array.to_list results |> List.concat);
      Client.close c)

let test_stalled_client_blocks_no_one () =
  (* A peer that sends a length prefix and half its payload, then stalls,
     holds its own connection thread in [Wire.read] — never the lock the
     engine work runs under. *)
  with_daemon (fun path ->
      let addr = "unix:" ^ path in
      let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close raw)
        (fun () ->
          Unix.connect raw (Unix.ADDR_UNIX path);
          let frame = Wire.frame (Proto.encode_request (Proto.Report { tenant = "stall" })) in
          ignore (Unix.write_substring raw frame 0 (String.length frame / 2));
          let finished = Atomic.make false in
          let join =
            in_thread (fun () ->
                let c = ok_exn "connect" (Client.connect addr) in
                let s = ok_exn "open" (Client.open_session c ~tenant:"live" (line3 ())) in
                ignore (ok_exn "add" (Client.add_path s [ 0; 1 ]));
                check_int "report" 2 (ok_exn "report" (Client.report s)).Proto.n_wavelengths;
                Client.close c;
                Atomic.set finished true)
          in
          let deadline = Unix.gettimeofday () +. 2.0 in
          while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
            Thread.delay 0.005
          done;
          check "open, add and report done within 2 s" true (Atomic.get finished);
          match join () with Ok () -> () | Error m -> Alcotest.fail m))

let test_drain_under_load () =
  (* Drain takes the dispatch lock: once it returns no op is in flight,
     the drained sessions never change again, and every tenant request
     begun after it is refused. *)
  let shard = Shard.create ~shards:2 () in
  let tenants = [| "d0"; "d1"; "d2" |] in
  Array.iter
    (fun tenant ->
      match Shard.call shard (Proto.Open { tenant; instance = line3 () }) with
      | Ok (Proto.R_open _) -> ()
      | _ -> Alcotest.fail "open")
    tenants;
  let calls = Atomic.make 0 and drained = Atomic.make false in
  let late = ref [] in
  let join =
    in_thread (fun () ->
        let i = ref 0 in
        while List.length !late < 200 do
          let after = Atomic.get drained in
          let tenant = tenants.(!i mod 3) in
          let reply =
            match Shard.call shard (Proto.Add_path { tenant; vertices = [ 0; 1 ] }) with
            | Ok (Proto.R_path id) -> Shard.call shard (Proto.Remove_path { tenant; id })
            | reply -> reply
          in
          if !i mod 3 = 2 then ignore (Shard.call shard (Proto.Report { tenant }));
          if after then late := reply :: !late;
          incr i;
          Atomic.set calls !i
        done)
  in
  while Atomic.get calls < 30 do
    Thread.yield ()
  done;
  let sessions = Shard.drain shard in
  Atomic.set drained true;
  let stats () = List.map (fun (tenant, s) -> (tenant, Engine.stats s)) sessions in
  let at_drain = stats () in
  (match join () with Ok () -> () | Error m -> Alcotest.fail m);
  check_int "every tenant drained" 3 (List.length sessions);
  check "ops ran before the drain" true
    (List.for_all (fun (_, st) -> st.Engine.ops > 0) at_drain);
  check "drained sessions stay fixed" true (stats () = at_drain);
  check "every later call refused" true
    (List.for_all (fun r -> r = Error (Error.Precondition "server draining")) !late);
  check "drain is idempotent" true (Shard.drain shard == sessions)

let test_connect_checks_version () =
  (* A one-shot fake daemon that speaks the next protocol version: connect
     must send one untraced hello, then refuse and close its socket. *)
  let path = Filename.temp_file "wld_fake" ".sock" in
  Sys.remove path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 1;
  let hello = ref (Ok None) and closed = ref false in
  let join =
    in_thread (fun () ->
        let fd, _ = Unix.accept listener in
        hello := Wire.read fd;
        ignore (Wire.write fd (Proto.encode_reply (Ok (Proto.R_hello (Proto.version + 1)))));
        (closed :=
           match Unix.select [ fd ] [] [] 2.0 with
           | [], _, _ -> false
           | _ -> Wire.read fd = Ok None);
        Unix.close fd)
  in
  (match Client.connect ("unix:" ^ path) with
  | Error (Error.Unsupported_version v) -> check_int "daemon's version" (Proto.version + 1) v
  | Error e -> Alcotest.failf "want Unsupported_version, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "connected to a daemon of another version");
  (match join () with Ok () -> () | Error m -> Alcotest.fail m);
  Unix.close listener;
  Sys.remove path;
  check "one untraced hello" true
    (!hello = Ok (Some (Proto.encode_request (Proto.Hello Proto.version))));
  check "client closed its socket" true !closed

(* SIGPIPE's disposition, read without changing it. *)
let sigpipe_disposition () =
  let d = Sys.signal Sys.sigpipe Sys.Signal_default in
  Sys.set_signal Sys.sigpipe d;
  d

let test_broken_pipe () =
  (* Each call starts from the default disposition, under which a write
     to a closed peer kills the process: [Server.serve] and
     [Client.connect] must each ignore SIGPIPE themselves. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let path = Filename.temp_file "wld_pipe" ".sock" in
  Sys.remove path;
  let srv =
    ok_exn "serve" (Server.serve ~shard:(Shard.create ~shards:1 ()) (Server.Unix_sock path))
  in
  check "serve ignores SIGPIPE" true (sigpipe_disposition () = Sys.Signal_ignore);
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let c = ok_exn "connect" (Client.connect ("unix:" ^ path)) in
  check "connect ignores SIGPIPE" true (sigpipe_disposition () = Sys.Signal_ignore);
  (* A shutdown request makes the daemon answer, close this connection
     and stop; the next call then meets a closed peer. *)
  ok_exn "shutdown" (Client.shutdown_server c);
  ignore (Server.wait srv);
  (match Client.ping c with
  | Error (Error.Io _) -> ()
  | Error e -> Alcotest.failf "want an Io error, got %s" (Error.to_string e)
  | Ok () -> Alcotest.fail "a stopped daemon answered");
  Client.close c

(* --- trace context on the wire ----------------------------------------------- *)

module Ctx = Wl_obs.Ctx
module Trace = Wl_obs.Trace
module Hdr = Wl_obs.Hdr

let test_ctx_on_the_wire () =
  let g = Ctx.generator 31 in
  let ctx = Ctx.child g (Ctx.root g) in
  List.iter
    (fun json ->
      let tag = if json then "json" else "text" in
      let req = Proto.Ping in
      (match Proto.decode_request_ctx (Proto.encode_request ~json ~ctx req) with
      | Ok (Proto.Ping, c) ->
        check (tag ^ " trace id carried") true (c.Ctx.trace_id = ctx.Ctx.trace_id);
        check (tag ^ " span id carried") true (c.Ctx.span_id = ctx.Ctx.span_id);
        check (tag ^ " parent not carried") true (c.Ctx.parent_id = 0)
      | Ok _ -> Alcotest.failf "%s: ctx frame decoded as another verb" tag
      | Error e -> Alcotest.failf "%s: %s" tag (Error.to_string e));
      (* The untraced encoding is byte-identical to the pre-context
         protocol: that equality is what keeps old peers compatible. *)
      Alcotest.(check string)
        (tag ^ " Ctx.none encodes nothing")
        (Proto.encode_request ~json req)
        (Proto.encode_request ~json ~ctx:Ctx.none req);
      match Proto.decode_request_ctx (Proto.encode_request ~json req) with
      | Ok (Proto.Ping, c) ->
        check (tag ^ " absent ctx decodes to none") true (Ctx.is_none c)
      | _ -> Alcotest.failf "%s: untraced frame mishandled" tag)
    [ false; true ]

(* --- daemon introspection ----------------------------------------------------- *)

let with_memory_trace f =
  let sink = Trace.memory () in
  Trace.set_sink sink;
  Fun.protect ~finally:Trace.clear (fun () -> f sink)

let test_introspection () =
  (* Loopback daemon with several tenants; requests run traced so the
     engine latches exemplars.  The dstats rollup must equal a manual
     Hdr.merge_into over the drained sessions' histograms — introspection
     is a read-side projection, not a second bookkeeping path.  Requests
     go straight to the shard, each with a fresh trace context. *)
  with_memory_trace (fun _sink ->
      let shard = Shard.create ~shards:2 () in
      let gen = Ctx.generator 77 in
      let call what req =
        match Shard.call ~ctx:(Ctx.root gen) shard req with
        | Ok reply -> reply
        | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)
      in
      let path_of = function Proto.R_path id -> id | _ -> Alcotest.fail "expected a path id" in
      let n_adds = [ ("alpha", 4); ("beta", 2); ("gamma", 5) ] in
      List.iter
        (fun (tenant, n) ->
          ignore (call "open" (Proto.Open { tenant; instance = line3 () }));
          for _ = 1 to n do
            ignore (call "add" (Proto.Add_path { tenant; vertices = [ 0; 1 ] }));
            let id = path_of (call "add2" (Proto.Add_path { tenant; vertices = [ 2; 3 ] })) in
            ignore (call "remove" (Proto.Remove_path { tenant; id }))
          done)
        n_adds;
      let dstats () =
        match call "dstats" Proto.Dstats with
        | Proto.R_dstats d -> d
        | _ -> Alcotest.fail "expected dstats"
      in
      let trace_pull last =
        match call "trace pull" (Proto.Trace_dump { last }) with
        | Proto.R_trace doc -> doc
        | _ -> Alcotest.fail "expected a trace"
      in
      let d = dstats () in
      check_int "shards" 2 d.Proto.d_shards;
      check_int "sessions" 3 d.Proto.d_sessions;
      check_int "tenant rows" 3 (List.length d.Proto.d_tenants);
      check "rows sorted by tenant" true
        (List.map (fun r -> r.Proto.r_tenant) d.Proto.d_tenants
        = [ "alpha"; "beta"; "gamma" ]);
      List.iter
        (fun r ->
          let n = List.assoc r.Proto.r_tenant n_adds in
          (* open solves, then n (add, add, remove) rounds leave n+1 paths. *)
          check_int (r.Proto.r_tenant ^ " paths") (2 + n) r.Proto.r_paths;
          check_int (r.Proto.r_tenant ^ " ops") (3 * n) r.Proto.r_ops;
          check (r.Proto.r_tenant ^ " healthy") true r.Proto.r_healthy;
          check (r.Proto.r_tenant ^ " shard in range") true
            (r.Proto.r_shard >= 0 && r.Proto.r_shard < 2))
        d.Proto.d_tenants;
      let total_adds = List.fold_left (fun a (_, n) -> a + (2 * n)) 0 n_adds in
      check_int "add rollup count" total_adds d.Proto.d_add.Proto.l_count;
      check "traced requests latched an add exemplar" true
        (d.Proto.d_add.Proto.l_ex_trace <> 0);
      (* Introspection must not perturb what it reports. *)
      let d2 = dstats () in
      check "dstats is read-only" true (d = d2);
      let h =
        match call "dhealth" Proto.Dhealth with
        | Proto.R_dhealth h -> h
        | _ -> Alcotest.fail "expected dhealth"
      in
      check "daemon healthy" true h.Proto.dh_healthy;
      check_int "dhealth sessions" 3 h.Proto.dh_sessions;
      check "no unhealthy tenants" true (h.Proto.dh_unhealthy = []);
      (* The merged-trace endpoint returns a valid Chrome document
         covering every tenant's flight ring. *)
      let doc = trace_pull 0 in
      (match Trace.validate_chrome doc with
      | Ok n -> check "trace has the churn" true (n >= total_adds)
      | Error e -> Alcotest.fail ("pulled trace invalid: " ^ e));
      let doc1 = trace_pull 1 in
      (match Trace.validate_chrome doc1 with
      | Ok n -> check_int "last=1 keeps one op per ring" 3 n
      | Error e -> Alcotest.fail ("trimmed trace invalid: " ^ e));
      (* Ground truth: merge the drained sessions' histograms by hand and
         compare against the wire rollup, field for field. *)
      let sessions = Shard.drain shard in
      check_int "drained all sessions" 3 (List.length sessions);
      let merged = Hdr.create () in
      List.iter
        (fun (_, s) -> Hdr.merge_into ~dst:merged (Engine.add_hdr s))
        sessions;
      check_int "rollup count = manual merge" (Hdr.count merged)
        d.Proto.d_add.Proto.l_count;
      check_int "rollup p50 = manual merge" (Hdr.quantile merged 0.5)
        d.Proto.d_add.Proto.l_p50;
      check_int "rollup p99 = manual merge" (Hdr.quantile merged 0.99)
        d.Proto.d_add.Proto.l_p99;
      check_int "rollup max = manual merge" (Hdr.snapshot merged).Hdr.max
        d.Proto.d_add.Proto.l_max;
      match Hdr.exemplar merged with
      | None -> Alcotest.fail "manual merge lost the exemplar"
      | Some (ns, trace) ->
        check_int "exemplar ns = manual merge" ns d.Proto.d_add.Proto.l_ex_ns;
        check_int "exemplar trace = manual merge" trace
          d.Proto.d_add.Proto.l_ex_trace)

let test_traced_call_span_tree () =
  (* One traced request through the sync loopback produces the full span
     family — client.call, wire.codec, serve.queue_wait, serve.batch,
     serve.engine — all stamped with one trace id. *)
  with_memory_trace (fun sink ->
      let c = Client.local ~seed:5 () in
      let s = ok_exn "open" (Client.open_session c ~tenant:"t" (line3 ())) in
      ignore (ok_exn "add" (Client.add_path s [ 0; 1 ]));
      Client.close c;
      let events = Trace.events sink in
      let traces =
        List.filter_map
          (fun e ->
            List.find_map
              (function "trace", Trace.Str t -> Some t | _ -> None)
              e.Trace.args)
          events
      in
      check "spans carry trace args" true (traces <> []);
      List.iter
        (fun name ->
          check ("span " ^ name ^ " present") true
            (List.exists (fun e -> e.Trace.name = name) events))
        [ "client.call"; "wire.codec"; "serve.queue_wait"; "serve.batch";
          "serve.engine" ];
      (* Every open/add span family shares one trace id per request, and
         distinct requests get distinct trace ids. *)
      let module SS = Set.Make (String) in
      let distinct = SS.of_list traces in
      check "one trace id per request" true (SS.cardinal distinct >= 2))

(* --- unix-socket daemon ------------------------------------------------------ *)

let test_daemon_roundtrip () =
  let path = Filename.temp_file "wld_test" ".sock" in
  Sys.remove path;
  let shard = Shard.create ~shards:2 () in
  let srv =
    ok_exn "serve" (Server.serve ~shard (Server.Unix_sock path))
  in
  let c = ok_exn "connect" (Client.connect ("unix:" ^ path)) in
  ok_exn "ping" (Client.ping c);
  let s = ok_exn "open" (Client.open_session c ~tenant:"remote" (line3 ())) in
  let id = ok_exn "add" (Client.add_path s [ 1; 2; 3 ]) in
  check_int "pi over the wire" (ok_exn "pi" (Client.pi s)) 3;
  ok_exn "remove" (Client.remove_path s id);
  (* A second client sees the same tenant: state lives server-side. *)
  let c2 = ok_exn "connect2" (Client.connect ~json:true ("unix:" ^ path)) in
  let s2 = ok_exn "session2" (Client.session c2 ~tenant:"remote") in
  check_int "shared pi" (ok_exn "pi2" (Client.pi s2)) 2;
  ok_exn "shutdown" (Client.shutdown_server c2);
  Client.close c2;
  Client.close c;
  let drained = Server.wait srv in
  check_int "one session at drain" (List.length drained) 1;
  (match drained with
  | [ (tenant, sess) ] ->
    Alcotest.(check string) "tenant" "remote" tenant;
    check "drained healthy" true (Engine.health sess).Engine.healthy
  | _ -> Alcotest.fail "unexpected drain listing");
  check "socket unlinked" false (Sys.file_exists path)

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "wire framing" `Quick test_wire;
        Alcotest.test_case "tenant ids" `Quick test_tenants;
        Alcotest.test_case "error frames" `Quick test_error_frames;
        Alcotest.test_case "one decode rule" `Quick test_decode_rules;
        Alcotest.test_case "request round trips" `Quick test_request_roundtrip;
        Alcotest.test_case "addresses" `Quick test_addresses;
        Alcotest.test_case "loopback client" `Quick test_loopback;
        Alcotest.test_case "json loopback batch" `Quick test_loopback_json_and_batch;
        Alcotest.test_case "loopback dispatch = engine" `Quick test_dispatch_matches_engine;
        Alcotest.test_case "concurrent dispatch = engine" `Quick
          test_concurrent_dispatch_matches_engine;
        Alcotest.test_case "a stalled client blocks no one" `Quick
          test_stalled_client_blocks_no_one;
        Alcotest.test_case "drain under load" `Quick test_drain_under_load;
        Alcotest.test_case "a closed peer is an Io error" `Quick test_broken_pipe;
        Alcotest.test_case "connect checks the protocol version" `Quick
          test_connect_checks_version;
        Alcotest.test_case "ctx on the wire" `Quick test_ctx_on_the_wire;
        Alcotest.test_case "daemon introspection" `Quick test_introspection;
        Alcotest.test_case "traced call span tree" `Quick
          test_traced_call_span_tree;
        Alcotest.test_case "unix socket daemon" `Quick test_daemon_roundtrip;
      ] );
  ]
