open Wl_core
module Engine = Wl_engine.Engine
module Ctx = Wl_obs.Ctx
module Trace = Wl_obs.Trace
module Clock = Wl_obs.Clock
module Flight = Wl_obs.Flight
module Hdr = Wl_obs.Hdr

(* FNV-1a with the offset basis folded into OCaml's 63-bit int range. *)
let shard_of_tenant ~shards tenant =
  let h = ref 0x4bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    tenant;
  (!h land max_int) mod shards

type shard = {
  sid : int;
  sessions : (string, Engine.session) Hashtbl.t;
  roster_m : Mutex.t;
  mutable roster : (string * Engine.session) list;
      (** mirror of [sessions], maintained on Open/Evict.  The Hashtbl is
          only touched under [t.m], so introspection requests answered
          outside it read this mirror under its own lock instead of
          racing the table. *)
}

type t = {
  shards : shard array;
  flight_capacity : int;
  m : Mutex.t;
      (** One lock for every shard, held across the engine work
          ([handle_traced]) and nothing else: no socket read or write and
          no codec runs under it.  Per-shard locks would not be safe:
          every systhread of the domain shares its domain-local state —
          the scratches that [Theorem1.color] (reached by [Solver] and
          [Theorem6.split_and_glue]) and DSATUR draw from, the ambient
          [Ctx] cell, and the [Trace] and [Prof] span stacks — and the
          tick thread may switch systhreads at any poll point in the
          middle of a solve, so a second connection would solve on the
          same scratch.  One domain runs one OCaml thread at a time
          anyway, so the single lock gives up no parallelism. *)
  mutable drained : (string * Engine.session) list option;
      (** [Some] once {!drain} ran; read and written under [m] *)
}

(* --- introspection (dstats / dhealth / tracedump) --------------------------- *)

(* Served outside the lock, never waiting behind engine work: the
   figures come from the roster mirror plus lock-free read-backs (HDR
   atomics, stats ints).  Racing a concurrent op can skew one sample —
   monitoring-grade, never corrupting. *)
let roster_snapshot t =
  Array.to_list t.shards
  |> List.concat_map (fun sh ->
         Mutex.lock sh.roster_m;
         let r = sh.roster in
         Mutex.unlock sh.roster_m;
         List.rev_map (fun (tenant, s) -> (sh.sid, tenant, s)) r)
  |> List.sort (fun (_, a, _) (_, b, _) -> String.compare a b)

let rollup_of_hdr h =
  let s = Hdr.snapshot h in
  let ex_ns, ex_trace =
    match Hdr.exemplar h with Some (v, tr) -> (v, tr) | None -> (0, 0)
  in
  {
    Proto.l_count = s.Hdr.count;
    l_p50 = s.Hdr.p50;
    l_p90 = s.Hdr.p90;
    l_p99 = s.Hdr.p99;
    l_p999 = s.Hdr.p999;
    l_max = s.Hdr.max;
    l_ex_ns = ex_ns;
    l_ex_trace = ex_trace;
  }

let dstats t : Proto.reply =
  let sessions = roster_snapshot t in
  (* Daemon-wide quantiles come from merging every session's histogram —
     not from averaging per-session quantiles, which would be wrong. *)
  let add = Hdr.create () and remove = Hdr.create () in
  let tenants =
    List.map
      (fun (sid, tenant, s) ->
        Hdr.merge_into ~dst:add (Engine.add_hdr s);
        Hdr.merge_into ~dst:remove (Engine.remove_hdr s);
        let h = Engine.health s in
        let st = Engine.stats s in
        {
          Proto.r_tenant = tenant;
          r_shard = sid;
          r_paths = Engine.n_live_paths s;
          r_pi = Engine.pi s;
          r_ops = st.Engine.ops;
          r_add_p50 = h.Engine.add_latency.Hdr.p50;
          r_add_p99 = h.Engine.add_latency.Hdr.p99;
          r_healthy = h.Engine.healthy;
        })
      sessions
  in
  Ok
    (Proto.R_dstats
       {
         Proto.d_shards = Array.length t.shards;
         d_sessions = List.length sessions;
         d_add = rollup_of_hdr add;
         d_remove = rollup_of_hdr remove;
         d_tenants = tenants;
       })

let dhealth t : Proto.reply =
  let sessions = roster_snapshot t in
  let unhealthy =
    List.filter_map
      (fun (_, tenant, s) ->
        if (Engine.health s).Engine.healthy then None else Some tenant)
      sessions
  in
  Ok
    (Proto.R_dhealth
       {
         Proto.dh_healthy = unhealthy = [];
         dh_sessions = List.length sessions;
         dh_unhealthy = unhealthy;
       })

let trace_dump t ~last : Proto.reply =
  let rings = List.map (fun (_, _, s) -> Engine.flight s) (roster_snapshot t) in
  let last = if last <= 0 then None else Some last in
  Ok (Proto.R_trace (Flight.merged_chrome ?last rings))

(* --- per-request execution (runs under the lock) ---------------------------- *)

let no_session tenant = Error.Invalid_op ("no open session for tenant " ^ tenant)

let with_session sh tenant k =
  match Hashtbl.find_opt sh.sessions tenant with
  | None -> Error (no_session tenant)
  | Some s -> k s

let wire_outcomes (b : Engine.batch) =
  Proto.R_outcomes
    {
      outcomes = Array.map (Result.map Proto.outcome_of_engine) b.Engine.outcomes;
      after = Proto.report_of_solver b.Engine.batch_report;
    }

(* Tenant-less requests: answered outside the lock.
   [Shutdown] replies [R_bye]; initiating the drain is the caller's job. *)
let answer_inline t (req : Proto.req) : Proto.reply =
  match req with
  | Proto.Hello v ->
    if v = Proto.version then Ok (Proto.R_hello Proto.version)
    else Error (Error.Unsupported_version v)
  | Proto.Ping -> Ok Proto.R_pong
  | Proto.Dstats -> dstats t
  | Proto.Dhealth -> dhealth t
  | Proto.Trace_dump { last } -> trace_dump t ~last
  | Proto.Shutdown -> Ok Proto.R_bye
  | _ -> Error (Error.Invalid_op ("no tenant in a " ^ Proto.verb_of_req req ^ " request"))

let handle_one t sh (req : Proto.req) : Proto.reply =
  match req with
  | Proto.Open { tenant; instance } ->
    let s = Engine.create ~flight_capacity:t.flight_capacity instance in
    Flight.set_label (Engine.flight s) tenant;
    Hashtbl.replace sh.sessions tenant s;
    Mutex.lock sh.roster_m;
    sh.roster <- (tenant, s) :: List.remove_assoc tenant sh.roster;
    Mutex.unlock sh.roster_m;
    Ok (Proto.R_open (Proto.report_of_solver (Engine.report s)))
  | Proto.Add_path { tenant; vertices } ->
    with_session sh tenant (fun s ->
        Result.map (fun id -> Proto.R_path id) (Engine.add_path s vertices))
  | Proto.Remove_path { tenant; id } ->
    with_session sh tenant (fun s ->
        Result.map (fun () -> Proto.R_removed id) (Engine.remove_path s id))
  | Proto.Add_arc { tenant; tail; head } ->
    with_session sh tenant (fun s ->
        Result.map (fun a -> Proto.R_arc a) (Engine.add_arc s tail head))
  | Proto.Submit { tenant; ops } ->
    with_session sh tenant (fun s -> Ok (wire_outcomes (Engine.submit s ops)))
  | Proto.Report { tenant } ->
    with_session sh tenant (fun s ->
        Ok (Proto.R_report (Proto.report_of_solver (Engine.report s))))
  | Proto.Pi { tenant } -> with_session sh tenant (fun s -> Ok (Proto.R_pi (Engine.pi s)))
  | Proto.Color_of { tenant; id } ->
    with_session sh tenant (fun s ->
        Result.map (fun c -> Proto.R_color c) (Engine.color_of s id))
  | Proto.Stats { tenant } ->
    with_session sh tenant (fun s -> Ok (Proto.R_stats (Engine.stats s)))
  | Proto.Health { tenant } ->
    with_session sh tenant (fun s ->
        Ok (Proto.R_health (Proto.health_of_engine (Engine.health s))))
  | Proto.Snapshot { tenant } ->
    with_session sh tenant (fun s -> Ok (Proto.R_snapshot (Engine.instance s)))
  | Proto.Evict { tenant } ->
    with_session sh tenant (fun s ->
        ignore s;
        Hashtbl.remove sh.sessions tenant;
        Mutex.lock sh.roster_m;
        sh.roster <- List.remove_assoc tenant sh.roster;
        Mutex.unlock sh.roster_m;
        Ok Proto.R_evicted)
  | Proto.Hello _ | Proto.Ping | Proto.Shutdown | Proto.Dstats | Proto.Dhealth
  | Proto.Trace_dump _ ->
    answer_inline t req

(* --- trace-context plumbing ------------------------------------------------ *)

(* Install the propagated context as the domain-ambient one while the
   engine works, so op spans, HDR exemplars and flight records latch the
   caller's trace id; [serve.batch]/[serve.engine] spans carry it too and
   line up under the client span in a merged Chrome view. *)
let with_ctx ctx f =
  if Ctx.is_none ctx then f ()
  else begin
    (* Save/restore rather than clear: on the loopback the client's own
       ambient context lives on this same domain. *)
    let prev = Ctx.current () in
    Ctx.set ctx;
    Fun.protect ~finally:(fun () -> Ctx.set prev) f
  end

let traced ctx = (not (Ctx.is_none ctx)) && Trace.enabled ()

(* The one dispatch path, run under [t.m]: a mutation goes straight to the
   engine and solves lazily, as on a bare session.  [serve.queue_wait]
   spans the wait for the lock, from [t0_us], stamped before
   [Mutex.lock], to now. *)
let handle_traced t sh ~ctx ~t0_us req =
  with_ctx ctx (fun () ->
      if not (traced ctx) then handle_one t sh req
      else begin
        Trace.span_between "serve.queue_wait" ~t0_us ~t1_us:(Clock.now_us ());
        Trace.with_span "serve.batch"
          ~args:[ ("shard", Trace.Int sh.sid); ("jobs", Trace.Int 1) ]
          (fun () ->
            Trace.with_span "serve.engine"
              ~args:[ ("verb", Trace.Str (Proto.verb_of_req req)) ]
              (fun () -> handle_one t sh req))
      end)

(* --- public surface -------------------------------------------------------- *)

let create ?(flight_capacity = 256) ?threaded:_ ?max_queue:_ ~shards () =
  if shards <= 0 then invalid_arg "Shard.create: shards must be positive";
  let mk sid =
    { sid; sessions = Hashtbl.create 64; roster_m = Mutex.create (); roster = [] }
  in
  { shards = Array.init shards mk; flight_capacity; m = Mutex.create (); drained = None }

let draining_error = Error.Precondition "server draining"

let call ?(ctx = Ctx.none) t (req : Proto.req) =
  match Proto.tenant_of_req req with
  | None -> answer_inline t req
  | Some tenant ->
    let sh = t.shards.(shard_of_tenant ~shards:(Array.length t.shards) tenant) in
    let t0_us = if traced ctx then Clock.now_us () else 0. in
    Mutex.protect t.m (fun () ->
        if t.drained <> None then Error draining_error
        else handle_traced t sh ~ctx ~t0_us req)

let drain t =
  Mutex.protect t.m (fun () ->
      match t.drained with
      | Some listing -> listing
      | None ->
        let listing =
          Array.to_list t.shards
          |> List.concat_map (fun sh ->
                 Hashtbl.fold (fun tenant s acc -> (tenant, s) :: acc) sh.sessions [])
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        t.drained <- Some listing;
        listing)
