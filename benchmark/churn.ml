(* Serve workloads: tenants churning add/remove (and report) ops against a
   wld daemon over wlrpc/1.

   Load model: one process, [threads] client threads, each holding one
   connection with one request outstanding (closed loop: [Client] calls
   block).  Thread [j] serves the tenants [i] with [i mod threads = j],
   one op per tenant in turn.  Each tenant's op stream is a deterministic
   function of (seed, tenant): it adds with probability 0.7 below its
   target live-path count and 0.3 at or above it, and optionally reads a
   report after every [reads_every] mutations.  A fixed untimed warm-up of
   [warm_ops] ops per tenant brings every tenant to its steady state.

   The traced run replays the very same streams at increasing depth — bare
   [Engine] calls, a synchronous [Shard], a threaded [Shard], the [Proto]
   and [Wire] codecs on the exact request/reply values, and the socket —
   so each layer's self time is the difference from the depth below. *)

module Client = Wl.Client
module Engine = Wl.Engine
module Shard = Wl.Shard
module Proto = Wl.Proto
module Wire = Wl.Wire
module Prng = Wl.Prng
module Ctx = Wl_obs.Ctx
module Buf = Meter.Buf

type family =
  | Tree  (** random rooted tree: no internal cycle, w = pi *)
  | Gnp  (** gnp DAG with internal cycles: exact or DSATUR *)
  | Upp1  (** UPP-DAG with one internal cycle: Theorem 6 *)

type spec = {
  tenants : int;
  family : int -> family;  (** by tenant index *)
  target : int;  (** live paths a tenant hovers around *)
  reads_every : int;  (** one report per this many mutations; 0 = none *)
  json : bool;  (** JSON mirror codec instead of text *)
  ctx : bool;  (** client tracing on, so every frame carries a context *)
}

let threads = 2
let shards = 2
let pool_size = 64
let warm_ops spec = 2 * spec.target

type tenant = {
  name : string;
  family : family;
  inst : Wl.Instance.t;  (** the tenant's graph, no paths *)
  paths : int list array;  (** candidate dipaths as vertex sequences *)
  add_reqs : Proto.req array;
  report_req : Proto.req;
  gen : Prng.t;
  mutable live_n : int;  (** the stream's own count of live paths *)
  mutable since_read : int;
  log : Buf.t;  (** every op issued so far, encoded as by [next_op] *)
}

let make_tenant ~seed i family =
  let rng = Prng.create ((seed lsl 20) + i) in
  let dag =
    match family with
    | Tree -> Wl.Generators.random_rooted_tree rng 48
    | Gnp -> Wl.Generators.gnp_dag rng 60 0.12
    | Upp1 -> Wl.Generators.upp_one_internal_cycle rng ()
  in
  let paths =
    match Wl.Routing.route_shortest dag (Wl.Traffic.uniform rng dag pool_size) with
    | Ok (_ :: _ as ps) -> Array.of_list (List.map Wl.Dipath.vertices ps)
    | Ok [] | Error _ -> failwith "tenant graph has no routable pair"
  in
  let name = Printf.sprintf "t%04d" i in
  {
    name;
    family;
    inst = Wl.Instance.make dag [];
    paths;
    add_reqs = Array.map (fun vertices -> Proto.Add_path { tenant = name; vertices }) paths;
    report_req = Proto.Report { tenant = name };
    gen = rng;
    live_n = 0;
    since_read = 0;
    log = Buf.create 1024;
  }

let make_tenants ~seed spec = Array.init spec.tenants (fun i -> make_tenant ~seed i (spec.family i))

(* Ops are ints so that issuing one allocates nothing on the bench side:
   [p >= 0] adds candidate path [p], [-1] reads the report, and [-2 - q]
   removes the live path at position [q] of the tenant's live list. *)
let next_op spec t =
  if spec.reads_every > 0 && t.since_read >= spec.reads_every then begin
    t.since_read <- 0;
    -1
  end
  else begin
    t.since_read <- t.since_read + 1;
    let p_add = if t.live_n < spec.target then 0.7 else 0.3 in
    if t.live_n = 0 || Prng.bernoulli t.gen p_add then begin
      t.live_n <- t.live_n + 1;
      Prng.int t.gen (Array.length t.paths)
    end
    else begin
      let q = Prng.int t.gen t.live_n in
      t.live_n <- t.live_n - 1;
      -2 - q
    end
  end

(* --- one op at each depth ------------------------------------------------ *)

(* [live] holds the path ids the transport returned, in stream order. *)
let client_op t sess live op =
  if op >= 0 then (
    match Client.add_path sess t.paths.(op) with
    | Ok id ->
      Buf.add live id;
      true
    | Error _ ->
      Buf.add live (-1);
      false)
  else if op = -1 then Result.is_ok (Client.report sess)
  else Result.is_ok (Client.remove_path sess (Buf.swap_remove live (-2 - op)))

let engine_op t s live op =
  if op >= 0 then (
    match Engine.add_path s t.paths.(op) with
    | Ok id ->
      Buf.add live id;
      true
    | Error _ ->
      Buf.add live (-1);
      false)
  else if op = -1 then (
    ignore (Engine.report s);
    true)
  else Result.is_ok (Engine.remove_path s (Buf.swap_remove live (-2 - op)))

let shard_req t live op =
  if op >= 0 then t.add_reqs.(op)
  else if op = -1 then t.report_req
  else Proto.Remove_path { tenant = t.name; id = Buf.swap_remove live (-2 - op) }

let note_reply live op (reply : Proto.reply) =
  match reply with
  | Ok (Proto.R_path id) ->
    Buf.add live id;
    true
  | Ok (Proto.R_removed _ | Proto.R_report _) -> true
  | Ok _ | Error _ ->
    if op >= 0 then Buf.add live (-1);
    false

(* --- driving ------------------------------------------------------------- *)

let in_threads f =
  let errors = Array.make threads None in
  let ths =
    Array.init threads (fun j ->
        Thread.create (fun () -> try f j with e -> errors.(j) <- Some e) ())
  in
  Array.iter Thread.join ths;
  Array.iter (function Some e -> raise e | None -> ()) errors

let tenants_of_thread n j =
  Array.of_list (List.filter (fun i -> i mod threads = j) (List.init n Fun.id))

let total_ops tenants = Array.fold_left (fun acc t -> acc + Buf.length t.log) 0 tenants
let sum = Array.fold_left ( + ) 0

type pass = {
  lat : int array;  (** timed op latencies in completion order, ns *)
  span : int array;  (** wall time from the previous completion, ns *)
  failed : int;
}

(* Merge the threads' (completion, latency) logs into completion order. *)
let completion_order ~start ends lats =
  let n = Array.fold_left (fun acc b -> acc + Buf.length b) 0 lats in
  let lat = Array.make n 0 and span = Array.make n 0 in
  let pos = Array.make threads 0 and last = ref start in
  for x = 0 to n - 1 do
    let j = ref (-1) in
    for k = 0 to threads - 1 do
      if pos.(k) < Buf.length ends.(k)
         && (!j < 0 || Buf.get ends.(k) pos.(k) < Buf.get ends.(!j) pos.(!j))
      then j := k
    done;
    let t1 = Buf.get ends.(!j) pos.(!j) in
    lat.(x) <- Buf.get lats.(!j) pos.(!j);
    span.(x) <- t1 - !last;
    last := t1;
    pos.(!j) <- pos.(!j) + 1
  done;
  (lat, span)

(* The socket pass that generates the streams: the warm-up, [after_warm ()]
   at a quiescent point, then timed ops until [run_ns] has passed; every op
   issued is logged for the replays. *)
let live_pass spec tenants sessions ~run_ns ~after_warm =
  let n = Array.length tenants in
  let lives = Array.map (fun _ -> Buf.create 64) tenants in
  let failed = Array.make threads 0 in
  let issue j i =
    let t = tenants.(i) in
    let op = next_op spec t in
    Buf.add t.log op;
    let t0 = Meter.now_ns () in
    if not (client_op t sessions.(i) lives.(i) op) then failed.(j) <- failed.(j) + 1;
    (t0, Meter.now_ns ())
  in
  in_threads (fun j ->
      let mine = tenants_of_thread n j in
      for _ = 1 to warm_ops spec do
        Array.iter (fun i -> ignore (issue j i)) mine
      done);
  after_warm ();
  let lats = Array.init threads (fun _ -> Buf.create 65536) in
  let ends = Array.init threads (fun _ -> Buf.create 65536) in
  let start = Meter.now_ns () in
  let stop = start + run_ns in
  in_threads (fun j ->
      let mine = tenants_of_thread n j in
      let k = ref 0 and t1 = ref start in
      while !t1 < stop do
        let t0, t = issue j mine.(!k) in
        k := if !k + 1 = Array.length mine then 0 else !k + 1;
        Buf.add lats.(j) (t - t0);
        Buf.add ends.(j) t;
        t1 := t
      done);
  let lat, span = completion_order ~start ends lats in
  ({ lat; span; failed = sum failed }, lives)

(* Replay the logged streams of tenants [mine], one op per tenant in turn:
   the warm-up untimed, then the rest timed into [lat].  [exec i op] runs
   one op of tenant [i]; [span i k t0 t1] sees timed op [k] of tenant [i]. *)
let replay spec tenants mine ~lat ~span exec =
  let failed = ref 0 in
  let phase ~lo ~hi timed =
    let pos = Array.map (fun i -> lo tenants.(i)) mine in
    let left = ref (Array.length mine) in
    while !left > 0 do
      left := 0;
      for m = 0 to Array.length mine - 1 do
        let i = mine.(m) in
        let k = pos.(m) in
        if k < hi tenants.(i) then begin
          let op = Buf.get tenants.(i).log k in
          let t0 = Meter.now_ns () in
          let ok = exec i op in
          let t1 = Meter.now_ns () in
          if not ok then incr failed;
          if timed then begin
            Buf.add lat (t1 - t0);
            span i k t0 t1
          end;
          pos.(m) <- k + 1;
          incr left
        end
      done
    done
  in
  phase ~lo:(fun _ -> 0) ~hi:(fun _ -> warm_ops spec) false;
  phase ~lo:(fun _ -> warm_ops spec) ~hi:(fun t -> Buf.length t.log) true;
  !failed

(* --- the daemon ---------------------------------------------------------- *)

type conn = { daemon : Proc.daemon; clients : Client.t array; sessions : Client.session array }

(* Spawn wld and open every tenant's session: the serve set-up. *)
let setup (env : Meter.env) spec tenants =
  let d = Proc.start_daemon ~wl:env.wl ~dir:env.dir ~shards in
  let clients =
    Array.init threads (fun j -> Proc.connect d ~json:spec.json ~seed:((env.seed lsl 4) + j + 1))
  in
  let sessions =
    Array.mapi
      (fun i t ->
        match Client.open_session clients.(i mod threads) ~tenant:t.name t.inst with
        | Ok s -> s
        | Error e -> failwith ("open " ^ t.name ^ ": " ^ Wl.Error.to_string e))
      tenants
  in
  { daemon = d; clients; sessions }

let teardown c =
  let n = Array.length c.clients in
  Proc.stop_daemon c.daemon
    ~others:(Array.to_list (Array.sub c.clients 0 (n - 1)))
    ~last:c.clients.(n - 1)

type verdict = {
  w_over_pi : float list;  (** final wavelength count over load, per tenant *)
  stats : Engine.stats list;
  solve_ns : int list;  (** in-process re-solve of each final snapshot *)
  solve_minor_w : float list;
  optimal : int;
}

(* The answer checks: every tenant's final state, read back over the wire
   and re-solved in-process, must agree with what the daemon reports; the
   paper's bound for the tenant's class must hold; and the daemon must
   hold exactly the paths the client saw acknowledged. *)
let check_tenants tally tenants c lives =
  let ratio = ref [] and stats = ref [] and solve_ns = ref [] and minor = ref [] in
  let optimal = ref 0 in
  Array.iteri
    (fun i t ->
      let s = c.sessions.(i) in
      match (Client.report s, Client.snapshot s, Client.stats s) with
      | Ok r, Ok inst, Ok st ->
        let w0 = Meter.minor_words () in
        let t0 = Meter.now_ns () in
        let solved = Wl.Solver.solve inst in
        solve_ns := (Meter.now_ns () - t0) :: !solve_ns;
        minor := (Meter.minor_words () -. w0) :: !minor;
        if solved.Wl.Solver.optimal then incr optimal;
        stats := st :: !stats;
        let w = r.Proto.n_wavelengths and pi = r.Proto.pi in
        ratio := (if pi = 0 then 1. else float_of_int w /. float_of_int pi) :: !ratio;
        Meter.check tally
          (solved.Wl.Solver.n_wavelengths = w
          && solved.Wl.Solver.pi = pi
          && solved.Wl.Solver.optimal = r.Proto.optimal)
          (fun () ->
            Printf.sprintf "%s: daemon reports w=%d pi=%d, its snapshot re-solves to w=%d pi=%d"
              t.name w pi solved.Wl.Solver.n_wavelengths solved.Wl.Solver.pi);
        (match t.family with
        | Tree ->
          Meter.check tally (w = pi) (fun () ->
              Printf.sprintf "%s: rooted tree with w=%d <> pi=%d" t.name w pi)
        | Upp1 ->
          Meter.check tally
            (w <= ((4 * pi) + 2) / 3)
            (fun () -> Printf.sprintf "%s: UPP tenant with w=%d > ceil(4*%d/3)" t.name w pi)
        | Gnp ->
          Meter.check tally (w >= pi) (fun () -> Printf.sprintf "%s: w=%d < pi=%d" t.name w pi));
        Meter.check tally
          (Wl.Instance.n_paths inst = Buf.length lives.(i))
          (fun () ->
            Printf.sprintf "%s: daemon holds %d paths, client saw %d acknowledged" t.name
              (Wl.Instance.n_paths inst) (Buf.length lives.(i)))
      | _ -> Meter.check tally false (fun () -> t.name ^ ": read-back failed"))
    tenants;
  {
    w_over_pi = !ratio;
    stats = !stats;
    solve_ns = !solve_ns;
    solve_minor_w = !minor;
    optimal = !optimal;
  }

let with_client_tracing spec f =
  if spec.ctx then Wl.Trace.set_sink Wl.Trace.discard;
  Fun.protect ~finally:(fun () -> if spec.ctx then Wl.Trace.clear ()) f

let us ns = ns /. 1e3
let f = float_of_int
let mean_list xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. f (List.length xs)

(* --- end-to-end run ------------------------------------------------------ *)

let setups = 7

let run (env : Meter.env) spec =
  let tally = Meter.tally () in
  let tenants = make_tenants ~seed:env.seed spec in
  with_client_tracing spec (fun () ->
      (* Set up several times and keep the last daemon: the median is the
         set-up time, and work moved into set-up shows in it. *)
      let setup_s = ref [] in
      let timed_setup () =
        let t0 = Meter.now_ns () in
        let c = setup env spec tenants in
        setup_s := Meter.secs_of_ns (Meter.now_ns () - t0) :: !setup_s;
        c
      in
      for _ = 2 to setups do
        teardown (timed_setup ())
      done;
      let c = timed_setup () in
      (* Memory is read after a fixed amount of work, so that a faster
         daemon, doing more ops in the same time, does not read as a
         bigger one. *)
      let rss = ref nan in
      let pass, lives =
        live_pass spec tenants c.sessions
          ~run_ns:(int_of_float (env.seconds *. 1e9))
          ~after_warm:(fun () -> rss := Meter.peak_rss_mb c.daemon.Proc.pid)
      in
      Meter.count_ops tally ~ops:(total_ops tenants) ~failed:pass.failed;
      let v = check_tenants tally tenants c lives in
      teardown c;
      let kept, kept_ns = Meter.quiet_half ~lat:pass.lat ~span:pass.span in
      let d = Meter.dist kept in
      let n = Meter.count d in
      let lat name q = Meter.metric ~samples:n name "us" (us (f (Meter.quantile d q))) in
      ( tally,
        [
          Meter.metric ~samples:setups "setup_s" "s" (Meter.median_f !setup_s);
          lat "lat_p50_us" 0.5;
          lat "lat_p90_us" 0.9;
          Meter.metric ~samples:n "throughput_per_s" "1/s" (f n /. Meter.secs_of_ns kept_ns);
          Meter.metric "peak_rss_mb" "MiB" !rss;
          Meter.metric ~samples:(List.length v.w_over_pi) "w_over_lb" "ratio"
            (mean_list v.w_over_pi);
        ] ))

(* --- traced run ---------------------------------------------------------- *)

let span_names =
  [|
    "client.call";
    "engine.op";
    "shard.call";
    "shard.threaded_call";
    "proto.encode_request";
    "proto.decode_request";
    "proto.encode_reply";
    "proto.decode_reply";
    "wire.frame";
    "wire.unframe";
  |]

(* tids of the Chrome view: one per client thread and per in-process depth *)
let threads_named =
  [
    (1, "socket client 0");
    (2, "socket client 1");
    (3, "engine");
    (4, "shard (synchronous)");
    (5, "shard (threaded) client 0");
    (6, "shard (threaded) client 1");
    (7, "proto + wire");
  ]

(* The in-process depths record spans for the first few tenants and ops
   only; the socket pass records every op, so its overhead is measured in
   full. *)
let spanned_tenants = 4
let spanned_codec_ops = 2048
let trace_id i k = (i lsl 24) lor k
let sum_stats pick stats = List.fold_left (fun acc st -> acc + pick st) 0 stats

(* mutations the engine handled without a full solve, as Engine.hit_rate
   counts them *)
let warm s = s.Engine.warm_hits + s.Engine.fresh_colors + s.Engine.repairs + s.Engine.warm_removes

(* Run every depth and derive the per-layer metrics.  [budget_ns] bounds
   the untraced socket pass; every other depth replays exactly its ops. *)
let traced (env : Meter.env) spec ~spans =
  let tally = Meter.tally () in
  let tenants = make_tenants ~seed:env.seed spec in
  let n = Array.length tenants in
  let budget_ns = int_of_float (Float.max 0.5 (0.25 *. env.seconds) *. 1e9) in
  (* Depth 5, untraced: generates the streams and the reference op mean. *)
  let sock =
    with_client_tracing spec (fun () ->
        let c = setup env spec tenants in
        let pass, lives = live_pass spec tenants c.sessions ~run_ns:budget_ns ~after_warm:ignore in
        Meter.count_ops tally ~ops:(total_ops tenants) ~failed:pass.failed;
        ignore (check_tenants tally tenants c lives);
        teardown c;
        pass)
  in
  let ops = total_ops tenants in
  let timed = ops - (n * warm_ops spec) in
  (* Depth 5 again on a fresh daemon, traced: one span per op. *)
  let traced_lat, client_minor_w, ping, dstats, verdict =
    with_client_tracing spec (fun () ->
        let c = setup env spec tenants in
        let lives = Array.map (fun _ -> Buf.create 64) tenants in
        let lats = Array.init threads (fun _ -> Buf.create ((timed / threads) + 16)) in
        let failed = Array.make threads 0 in
        let w0 = Meter.minor_words () in
        in_threads (fun j ->
            failed.(j) <-
              replay spec tenants (tenants_of_thread n j) ~lat:lats.(j)
                ~span:(fun i k t0 t1 ->
                  Spans.record spans ~name:0 ~tid:(1 + j) ~trace:(trace_id i k) ~t0 ~t1)
                (fun i op -> client_op tenants.(i) c.sessions.(i) lives.(i) op));
        let client_minor_w = (Meter.minor_words () -. w0) /. f ops in
        Meter.count_ops tally ~ops ~failed:(sum failed);
        (* Client.ping round trips under the same two-thread load shape. *)
        let pings = Array.init threads (fun _ -> Buf.create 16384) in
        let ping_failed = Array.make threads 0 in
        let ping_end = Meter.now_ns () + 500_000_000 in
        in_threads (fun j ->
            let t1 = ref 0 in
            while !t1 < ping_end do
              let t0 = Meter.now_ns () in
              if Result.is_error (Client.ping c.clients.(j)) then
                ping_failed.(j) <- ping_failed.(j) + 1;
              t1 := Meter.now_ns ();
              Buf.add pings.(j) (!t1 - t0)
            done);
        let ping = Buf.concat (Array.to_list pings) in
        Meter.count_ops tally ~ops:(Array.length ping) ~failed:(sum ping_failed);
        let dstats = Client.daemon_stats c.clients.(0) in
        Meter.check tally (Result.is_ok dstats) (fun () -> "daemon_stats failed");
        let v = check_tenants tally tenants c lives in
        teardown c;
        (Meter.dist (Buf.concat (Array.to_list lats)), client_minor_w, Meter.dist ping, dstats, v))
  in
  let all = Array.init n Fun.id in
  let span_if tid name i k t0 t1 =
    if i < spanned_tenants then Spans.record spans ~name ~tid ~trace:(trace_id i k) ~t0 ~t1
  in
  let fresh_lives () = Array.map (fun _ -> Buf.create 64) tenants in
  (* Depth 1: bare engine sessions. *)
  let engine_lat = Buf.create (timed + 16) in
  let sessions = Array.map (fun t -> Engine.create t.inst) tenants in
  let lives = fresh_lives () in
  let w0 = Meter.minor_words () in
  let failed =
    replay spec tenants all ~lat:engine_lat
      ~span:(fun i k t0 t1 -> span_if 3 1 i k t0 t1)
      (fun i op -> engine_op tenants.(i) sessions.(i) lives.(i) op)
  in
  let engine_minor_w = (Meter.minor_words () -. w0) /. f ops in
  Meter.count_ops tally ~ops ~failed;
  let bare = Array.to_list (Array.map Engine.stats sessions) in
  (* Depth 2: a synchronous shard; keeps every request and reply for the
     codec depth. *)
  let ctx_gen = Ctx.generator env.seed in
  let reqs = Array.make ops (Proto.Ping : Proto.req) in
  let replies = Array.make ops (Ok Proto.R_pong : Proto.reply) in
  let ctxs = Array.make ops Ctx.none in
  let kept = ref 0 in
  let sync_lat = Buf.create (timed + 16) in
  let open_all sh =
    Array.iter
      (fun t -> ignore (Shard.call sh (Proto.Open { tenant = t.name; instance = t.inst })))
      tenants
  in
  let sh = Shard.create ~threaded:false ~shards ~max_queue:1024 () in
  open_all sh;
  let lives = fresh_lives () in
  let failed =
    replay spec tenants all ~lat:sync_lat
      ~span:(fun i k t0 t1 -> span_if 4 2 i k t0 t1)
      (fun i op ->
        let req = shard_req tenants.(i) lives.(i) op in
        let ctx = if spec.ctx then Ctx.root ctx_gen else Ctx.none in
        let reply = Shard.call ~ctx sh req in
        reqs.(!kept) <- req;
        replies.(!kept) <- reply;
        ctxs.(!kept) <- ctx;
        incr kept;
        note_reply lives.(i) op reply)
  in
  ignore (Shard.drain sh);
  Meter.count_ops tally ~ops ~failed;
  (* Depth 3: a threaded two-shard set, driven like the socket. *)
  let sh = Shard.create ~threaded:true ~shards ~max_queue:1024 () in
  open_all sh;
  let lives = fresh_lives () in
  let lats = Array.init threads (fun _ -> Buf.create ((timed / threads) + 16)) in
  let failed = Array.make threads 0 in
  let gens = Array.init threads (fun j -> Ctx.generator (env.seed + j + 1)) in
  in_threads (fun j ->
      failed.(j) <-
        replay spec tenants (tenants_of_thread n j) ~lat:lats.(j)
          ~span:(fun i k t0 t1 -> span_if (5 + j) 3 i k t0 t1)
          (fun i op ->
            let req = shard_req tenants.(i) lives.(i) op in
            let ctx = if spec.ctx then Ctx.root gens.(j) else Ctx.none in
            note_reply lives.(i) op (Shard.call ~ctx sh req)));
  ignore (Shard.drain sh);
  Meter.count_ops tally ~ops ~failed:(sum failed);
  let threaded_lat = Meter.dist (Buf.concat (Array.to_list lats)) in
  (* Depth 4: the codecs on the exact values depth 2 exchanged, each
     decoded value checked against the original. *)
  let enc_req = ref 0 and dec_req = ref 0 and enc_reply = ref 0 and dec_reply = ref 0 in
  let codec_bad = ref 0 in
  let req_s = Array.make ops "" and reply_s = Array.make ops "" in
  let json = spec.json in
  let w0 = Meter.minor_words () in
  for x = 0 to ops - 1 do
    let ctx = ctxs.(x) in
    let t0 = Meter.now_ns () in
    let s = Proto.encode_request ~json ~ctx reqs.(x) in
    let t1 = Meter.now_ns () in
    let dreq = Proto.decode_request_ctx s in
    let t2 = Meter.now_ns () in
    let r = Proto.encode_reply ~json ~ctx replies.(x) in
    let t3 = Meter.now_ns () in
    let drep = Proto.decode_reply r in
    let t4 = Meter.now_ns () in
    enc_req := !enc_req + (t1 - t0);
    dec_req := !dec_req + (t2 - t1);
    enc_reply := !enc_reply + (t3 - t2);
    dec_reply := !dec_reply + (t4 - t3);
    req_s.(x) <- s;
    reply_s.(x) <- r;
    if x < spanned_codec_ops then begin
      Spans.record spans ~name:4 ~tid:7 ~trace:x ~t0 ~t1;
      Spans.record spans ~name:5 ~tid:7 ~trace:x ~t0:t1 ~t1:t2;
      Spans.record spans ~name:6 ~tid:7 ~trace:x ~t0:t2 ~t1:t3;
      Spans.record spans ~name:7 ~tid:7 ~trace:x ~t0:t3 ~t1:t4
    end;
    if dreq <> Ok (reqs.(x), ctx) || drep <> Ok replies.(x) then incr codec_bad
  done;
  let proto_minor_w = (Meter.minor_words () -. w0) /. f ops in
  Meter.count_ops tally ~ops ~failed:!codec_bad;
  let frame = ref 0 and unframe = ref 0 and wire_bad = ref 0 in
  let wire payload x =
    let t0 = Meter.now_ns () in
    let framed = Wire.frame payload in
    let t1 = Meter.now_ns () in
    let back = Wire.unframe framed 0 in
    let t2 = Meter.now_ns () in
    frame := !frame + (t1 - t0);
    unframe := !unframe + (t2 - t1);
    if x < spanned_codec_ops then begin
      Spans.record spans ~name:8 ~tid:7 ~trace:x ~t0 ~t1;
      Spans.record spans ~name:9 ~tid:7 ~trace:x ~t0:t1 ~t1:t2
    end;
    if back <> Ok (payload, String.length framed) then incr wire_bad
  in
  for x = 0 to ops - 1 do
    wire req_s.(x) x;
    wire reply_s.(x) x
  done;
  Meter.count_ops tally ~ops:(2 * ops) ~failed:!wire_bad;
  (* Self times per op: each depth minus the one below.  A socket op frames
     and unframes twice (request and reply). *)
  let per_op total = f total /. f ops in
  let engine_d = Meter.dist (Buf.to_array engine_lat) in
  let sync_d = Meter.dist (Buf.to_array sync_lat) in
  let sock_d = Meter.dist sock.lat in
  let proto_ns = per_op (!enc_req + !dec_req + !enc_reply + !dec_reply) in
  let wire_ns = 2. *. per_op (!frame + !unframe) in
  let layer_sum_us = us (Meter.mean threaded_lat +. proto_ns +. wire_ns +. Meter.mean ping) in
  let sock_us = us (Meter.mean sock_d) in
  let stats = verdict.stats in
  let per_issued x = f x /. f ops in
  let q d p = us (f (Meter.quantile d p)) in
  let daemon_us pick = match dstats with Ok d -> us (f (pick d)) | Error _ -> nan in
  let with_n d name unit v = Meter.metric ~samples:(Meter.count d) name unit v in
  ( tally,
    [
      with_n engine_d "engine.op_us_mean" "us" (us (Meter.mean engine_d));
      with_n engine_d "engine.op_us_p99" "us" (q engine_d 0.99);
      Meter.metric "engine.minor_w_per_op" "words" engine_minor_w;
      Meter.metric "engine.full_solves_per_op" "count"
        (per_issued (sum_stats (fun s -> s.Engine.full_solves) stats));
      Meter.metric "engine.bare_full_solves_per_op" "count"
        (per_issued (sum_stats (fun s -> s.Engine.full_solves) bare));
      Meter.metric "engine.warm_share" "ratio"
        (f (sum_stats warm stats) /. f (max 1 (sum_stats (fun s -> s.Engine.ops) stats)));
      Meter.metric "engine.repairs_per_op" "count"
        (per_issued (sum_stats (fun s -> s.Engine.repairs) stats));
      Meter.metric "shard.dispatch_us_mean" "us" (us (Meter.mean sync_d -. Meter.mean engine_d));
      Meter.metric "shard.queue_us_mean" "us" (us (Meter.mean threaded_lat -. Meter.mean sync_d));
      with_n threaded_lat "shard.threaded_us_p99" "us" (q threaded_lat 0.99);
      Meter.metric "proto.enc_req_ns" "ns" (per_op !enc_req);
      Meter.metric "proto.dec_req_ns" "ns" (per_op !dec_req);
      Meter.metric "proto.enc_reply_ns" "ns" (per_op !enc_reply);
      Meter.metric "proto.dec_reply_ns" "ns" (per_op !dec_reply);
      Meter.metric "proto.req_bytes" "bytes"
        (per_op (Array.fold_left (fun acc s -> acc + String.length s) 0 req_s));
      Meter.metric "proto.reply_bytes" "bytes"
        (per_op (Array.fold_left (fun acc s -> acc + String.length s) 0 reply_s));
      Meter.metric "proto.minor_w_per_op" "words" proto_minor_w;
      Meter.metric "wire.frame_ns" "ns" (f !frame /. f (2 * ops));
      Meter.metric "wire.unframe_ns" "ns" (f !unframe /. f (2 * ops));
      with_n ping "server.ping_us_p50" "us" (q ping 0.5);
      with_n ping "server.ping_us_p99" "us" (q ping 0.99);
      Meter.metric "server.residual_us_mean" "us" (sock_us -. layer_sum_us);
      Meter.metric "client.minor_w_per_op" "words" client_minor_w;
      Meter.metric "daemon.add_us_p50" "us" (daemon_us (fun d -> d.Proto.d_add.Proto.l_p50));
      Meter.metric "daemon.add_us_p99" "us" (daemon_us (fun d -> d.Proto.d_add.Proto.l_p99));
      Meter.metric "daemon.remove_us_p99" "us" (daemon_us (fun d -> d.Proto.d_remove.Proto.l_p99));
      Meter.metric ~samples:(List.length verdict.solve_ns) "solver.solve_ms" "ms"
        (mean_list (List.map f verdict.solve_ns) /. 1e6);
      Meter.metric "solver.solve_minor_w" "words" (mean_list verdict.solve_minor_w);
      Meter.metric "solver.optimal_share" "ratio"
        (f verdict.optimal /. f (max 1 (List.length verdict.solve_ns)));
      with_n sock_d "serve.socket_us_mean" "us" sock_us;
      with_n sock_d "serve.socket_us_p99" "us" (q sock_d 0.99);
      Meter.metric "serve.reconcile_ratio" "ratio" (layer_sum_us /. sock_us);
      with_n traced_lat "bench.trace_overhead_pct" "%"
        (100. *. (Meter.mean traced_lat -. Meter.mean sock_d) /. Meter.mean sock_d);
    ] )
