(* Flight recorder: ring semantics, the dump format, the auto-dump latch,
   and the engine wiring (every session carries one; a failing audit or a
   rejected op trips the dump handler with the op tail that led there).

   The dump is a Chrome trace: read back through Jsonx it must reproduce
   every recorded field, and it must pass the same validator as solver
   traces so one `wl trace-check` serves both. *)

open Helpers
module Flight = Wl_obs.Flight
module Trace = Wl_obs.Trace
module Engine = Wl_engine.Engine
module Instance = Wl_core.Instance
module Jsonx = Wl_json.Jsonx

let check_float = Alcotest.(check (float 0.))

let kinds = [| Flight.Add_path; Flight.Remove_path; Flight.Add_arc;
               Flight.Full_solve; Flight.Audit |]

let outcomes =
  [| Flight.Warm_hit; Flight.Fresh_color; Flight.Repair; Flight.Fallback;
     Flight.Dirty; Flight.Warm_remove; Flight.Shrink; Flight.Ok;
     Flight.Rejected; Flight.Failed |]

let kind_names = [| "add_path"; "remove_path"; "add_arc"; "full_solve"; "audit" |]

let outcome_names =
  [| "warm_hit"; "fresh_color"; "repair"; "fallback"; "dirty"; "warm_remove"; "shrink";
     "ok"; "rejected"; "failed" |]

(* One dumped op, read back from the Chrome trace: the event name is the
   op kind, [ts]/[dur] carry its start and duration in microseconds to
   the nanosecond, and the args carry the rest. *)
type line = {
  seq : int;
  t_ns : int;
  dur_ns : int;
  op : string;
  outcome : string;
  arcs : int;
  palette : int;
  pi : int;
}

let read_dump text =
  let events =
    match Jsonx.parse text with
    | Error e -> Alcotest.failf "bad dump: %s" e
    | Ok j -> (
      match Option.bind (Jsonx.member "traceEvents" j) Jsonx.to_list with
      | Some evs -> evs
      | None -> Alcotest.fail "dump without traceEvents")
  in
  List.map
    (fun ev ->
      let field k j = Option.get (Jsonx.member k j) in
      let args = field "args" ev in
      let int k = Option.get (Jsonx.to_int (field k args)) in
      let str k j = Option.get (Jsonx.to_str (field k j)) in
      let ns k =
        match field k ev with
        | Jsonx.Int us -> us * 1000
        | Jsonx.Float us -> Float.to_int (Float.round (us *. 1e3))
        | _ -> Alcotest.failf "%s is not a number" k
      in
      {
        seq = int "seq";
        t_ns = ns "ts";
        dur_ns = ns "dur";
        op = str "name" ev;
        outcome = str "outcome" args;
        arcs = int "arcs";
        palette = int "palette";
        pi = int "pi";
      })
    events

(* The dumped op [record_n] writes for op [i]. *)
let expected_line i =
  {
    seq = i;
    t_ns = i * 1000;
    dur_ns = i * 10;
    op = kind_names.(i mod Array.length kinds);
    outcome = outcome_names.(i mod Array.length outcomes);
    arcs = i mod 7;
    palette = i mod 5;
    pi = i mod 5;
  }

let record_n f n =
  for i = 0 to n - 1 do
    Flight.record f
      kinds.(i mod Array.length kinds)
      outcomes.(i mod Array.length outcomes)
      ~t_ns:(1_000_000 + (i * 1000))
      ~dur_ns:(i * 10) ~arcs:(i mod 7) ~palette:(i mod 5) ~pi:(i mod 5) ~trace:0
  done

(* A capacity of 12 rounds up to 16: the ring keeps the last 16 ops,
   oldest first. *)
let test_ring_retention () =
  let f = Flight.create ~capacity:12 () in
  record_n f 40;
  check_int "lifetime count" 40 (Flight.total f);
  let es = read_dump (Flight.to_chrome f) in
  check_int "holds the last capacity ops" 16 (List.length es);
  check "oldest retained is total - capacity" true
    (List.map (fun e -> e.seq) es = List.init 16 (fun i -> 24 + i));
  (* Field round-trip through the packed ring, including the relative
     timestamp (origin = first recorded t_ns). *)
  List.iter (fun e -> check "fields" true (e = expected_line e.seq)) es;
  check "last=4 keeps the newest four" true
    (List.map (fun e -> e.seq) (read_dump (Flight.merged_chrome ~last:4 [ f ]))
    = [ 36; 37; 38; 39 ])

(* Past capacity the ring wraps: the dump still holds exactly the tail. *)
let test_dump_roundtrip () =
  let f = Flight.create ~capacity:32 () in
  record_n f 50;
  check "the dump replays the recorded op tail exactly" true
    (read_dump (Flight.to_chrome f) = List.init 32 (fun i -> expected_line (18 + i)))

let test_chrome_dump_validates () =
  let f = Flight.create ~capacity:64 ~tid:3 () in
  record_n f 20;
  match Trace.validate_chrome (Flight.to_chrome f) with
  | Ok n -> check_int "one event per retained op" 20 n
  | Error e -> Alcotest.fail ("chrome dump rejected: " ^ e)

let test_trigger_latch () =
  let fired = ref [] in
  Flight.set_dump_handler
    (Some (fun ~reason _ -> fired := reason :: !fired));
  Fun.protect
    ~finally:(fun () -> Flight.set_dump_handler None)
    (fun () ->
      let f = Flight.create () in
      check "not dumped initially" true (!fired = []);
      Flight.trigger ~reason:"first" f;
      Flight.trigger ~reason:"second" f;
      check "latched after the first trigger" true (!fired = [ "first" ]);
      Flight.rearm f;
      Flight.trigger ~reason:"third" f;
      check "rearm re-enables the dump" true (!fired = [ "third"; "first" ]))

(* --- engine wiring ----------------------------------------------------------- *)

let churn session pool rounds =
  Array.iteri
    (fun i p ->
      if i < rounds then
        Engine.remove_path_exn session (Engine.add_dipath_exn session p))
    pool

let test_engine_audit_failure_dumps () =
  let captured = ref None and fires = ref 0 in
  Flight.set_dump_handler
    (Some
       (fun ~reason f ->
         incr fires;
         captured := Some (reason, Flight.to_chrome f)));
  Fun.protect
    ~finally:(fun () -> Flight.set_dump_handler None)
    (fun () ->
      let inst = random_nic_instance ~n:30 ~k:12 5 in
      let s = Engine.create inst in
      churn s (Instance.paths inst) 8;
      check "audit passes on a healthy session" true (Engine.audit s = Ok ());
      check "no dump yet" true (!captured = None);
      Engine.corrupt_for_testing s;
      (match Engine.audit s with
      | Ok () -> Alcotest.fail "audit passed on a corrupted session"
      | Error _ -> ());
      match !captured with
      | None -> Alcotest.fail "failing audit did not trigger a flight dump"
      | Some (reason, chrome) ->
        check "reason names the audit" true
          (String.length reason >= 5 && String.sub reason 0 5 = "audit");
        (* The dump passes the shared validator... *)
        (match Trace.validate_chrome chrome with
        | Ok n -> check "dump has the op tail" true (n > 0)
        | Error e -> Alcotest.fail ("dump trace invalid: " ^ e));
        (* ...and replays the tail, ending in the audit event. *)
        let entries = read_dump chrome in
        check "tail replays" true (entries <> []);
        let last = List.nth entries (List.length entries - 1) in
        check "last op is the failed audit" true
          (last.op = "audit" && last.outcome = "failed");
        (* the session's flight is latched: a further trigger stays quiet *)
        Flight.trigger ~reason:"again" (Engine.flight s);
        check_int "session flight latched" 1 !fires)

let test_engine_rejection_dumps () =
  let fired = ref 0 in
  Flight.set_dump_handler (Some (fun ~reason:_ _ -> incr fired));
  Fun.protect
    ~finally:(fun () -> Flight.set_dump_handler None)
    (fun () ->
      let inst = random_nic_instance ~n:20 ~k:6 11 in
      let s = Engine.create inst in
      (match Engine.remove_path s 999_999 with
      | Ok () -> Alcotest.fail "bogus handle accepted"
      | Error _ -> ());
      check_int "rejected op trips the dump latch" 1 !fired;
      (* Latched: a second rejection does not spam the handler. *)
      (match Engine.remove_path s 999_998 with Ok () -> () | Error _ -> ());
      check_int "dump latch holds" 1 !fired)

let test_engine_health () =
  let inst = random_nic_instance ~n:40 ~k:15 3 in
  let s = Engine.create inst in
  ignore (Engine.report s);
  (* solved: the churn below runs warm *)
  let pool = Instance.paths inst in
  churn s pool 15;
  let h = Engine.health s in
  check "healthy after warm churn" true h.Engine.healthy;
  check "slo not tripped" false h.Engine.slo.Wl_obs.Hdr.Slo.tripped;
  check "adds were measured" true (h.Engine.add_latency.Wl_obs.Hdr.count >= 15);
  check "removes were measured" true
    (h.Engine.remove_latency.Wl_obs.Hdr.count >= 15);
  check "warm lifetime rate positive" true (h.Engine.warm_hit_lifetime > 0.);
  check "no fallback streak" true (h.Engine.fallback_streak = 0);
  check "no warm drop" false h.Engine.warm_drop;
  (* The ops we just ran are in the flight ring. *)
  check "flight recorded the churn" true
    (Flight.total (Engine.flight s) >= 30);
  (* pp_health renders without raising and names the SLO. *)
  let rendered = Format.asprintf "%a" Engine.pp_health h in
  check "pp_health mentions slo" true
    (let rec at i =
       i + 3 <= String.length rendered
       && (String.sub rendered i 3 = "slo" || at (i + 1))
     in
     at 0)

let minor_delta f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_record_zero_alloc () =
  let f = Flight.create ~capacity:256 () in
  record_n f 100;
  let dw =
    minor_delta (fun () ->
        for i = 1 to 1000 do
          Flight.record f Flight.Add_path Flight.Warm_hit ~t_ns:(i * 100)
            ~dur_ns:50 ~arcs:3 ~palette:2 ~pi:2 ~trace:0
        done)
  in
  check_float "Flight.record allocates nothing" 0. dw

let suite =
  [
    ( "flight",
      [
        Alcotest.test_case "ring retention" `Quick test_ring_retention;
        Alcotest.test_case "dump roundtrip" `Quick test_dump_roundtrip;
        Alcotest.test_case "chrome dump validates" `Quick
          test_chrome_dump_validates;
        Alcotest.test_case "trigger latch" `Quick test_trigger_latch;
        Alcotest.test_case "engine audit failure dumps" `Quick
          test_engine_audit_failure_dumps;
        Alcotest.test_case "engine rejection dumps" `Quick
          test_engine_rejection_dumps;
        Alcotest.test_case "engine health" `Quick test_engine_health;
        Alcotest.test_case "record zero-alloc" `Quick test_record_zero_alloc;
      ] );
  ]
