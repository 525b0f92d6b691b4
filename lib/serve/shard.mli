(** Engine sessions behind the [wlrpc/1] dispatch.

    Sessions are partitioned over [shards] session tables by a stable
    hash of the tenant id; the partition is what [dstats] reports
    ([d_shards], [r_shard]).  {!call} answers a tenant's request on the
    calling thread, under one lock shared by every shard, so a tenant's
    operations run one at a time in the order their callers take the
    lock, and no session needs a lock of its own.  The daemon's
    connection threads decode a frame, {!call}, then encode and write
    the reply outside that lock, so a slow peer never holds it.

    Every request goes through one function, which makes the same engine
    calls a bare session would: a mutation goes straight to
    {!Wl_engine.Engine.add_path} (or [remove_path], [add_arc]) and
    solves lazily, a [Submit] goes through {!Wl_engine.Engine.submit}.
    So a client counts the same {!Wl_engine.Engine.stats} as a bare
    session given the same calls. *)

module Engine = Wl_engine.Engine

type t

val create :
  ?flight_capacity:int ->
  ?threaded:bool ->
  ?max_queue:int ->
  shards:int ->
  unit ->
  t
(** [flight_capacity] (default 256) bounds each session's
    flight-recorder ring so thousands of sessions stay cheap.  [shards]
    must be positive.  [threaded] and [max_queue] are ignored; they
    remain only because [benchmark/churn.ml] passes them.
    @raise Invalid_argument on a non-positive [shards]. *)

val call : ?ctx:Wl_obs.Ctx.t -> t -> Proto.req -> Proto.reply
(** Execute one request on the calling thread and return its reply.
    Tenant-scoped requests run under the shared lock on the tenant's
    shard; [Hello]/[Ping]/[Shutdown] are answered without it
    ([Shutdown] replies [R_bye] — initiating the drain is the caller's
    job).  Once {!drain} has run, a tenant-scoped request returns
    [Error (Precondition "server draining")].

    [ctx] is the propagated trace context ({!Wl_obs.Ctx}, default
    [none]): when set and tracing is on, the shard emits
    [serve.queue_wait] (the wait for the lock) / [serve.batch] /
    [serve.engine] spans under the caller's span, and engine-side HDR
    exemplars and flight records latch the trace id.

    The introspection requests — [Dstats], [Dhealth], [Trace_dump] —
    are answered outside the lock from a roster mirror plus lock-free
    engine read-backs, so they never wait behind (or block) engine
    work.  [Dstats] rollups merge every session's live histogram via
    {!Wl_obs.Hdr.merge_into}: true daemon-wide quantiles. *)

val drain : t -> (string * Engine.session) list
(** Stop accepting tenant requests and return every still-open session,
    sorted by tenant.  [drain] takes the shared lock, so once it returns
    no request is in flight: the sessions are quiescent, callers can
    read {!Wl_engine.Engine.health} or dump flight recorders without
    racing an op, and every later tenant-scoped {!call} returns
    [Error (Precondition "server draining")].  Idempotent; later calls
    return the same listing. *)
