(** Sharded engine workers behind the [wlrpc/1] dispatch.

    Sessions are partitioned over [shards] workers by a stable hash of the
    tenant id; every request for a tenant is executed by that tenant's
    worker, so per-tenant operations are processed in submission order
    without any per-session locking.

    In {e threaded} mode (the daemon) each worker is its own domain
    draining a bounded job queue: it takes the whole queue at once and
    answers the jobs in order.  The queue bound is the backpressure:
    {!call} blocks when the worker is [max_queue] jobs behind.

    In {e synchronous} mode (the in-process loopback client, the fuzz
    oracles) there are no domains: {!call} executes the request inline
    under the shard's lock.

    Both modes answer every request through one function, which makes
    the same engine calls a bare session would: a mutation goes
    straight to {!Wl_engine.Engine.add_path} (or [remove_path],
    [add_arc]) and solves lazily, a [Submit] goes through
    {!Wl_engine.Engine.submit}.  So a client in either mode counts the
    same {!Wl_engine.Engine.stats} as a bare session given the same
    calls. *)

module Engine = Wl_engine.Engine

type t

val create :
  ?threaded:bool ->
  ?flight_capacity:int ->
  shards:int ->
  max_queue:int ->
  unit ->
  t
(** [threaded] defaults to [true]; [flight_capacity] (default 256) bounds
    each session's flight-recorder ring so thousands of sessions stay
    cheap.  [shards] must be positive, [max_queue] at least 1.
    @raise Invalid_argument on a non-positive [shards] or [max_queue]. *)

val call : ?ctx:Wl_obs.Ctx.t -> t -> Proto.req -> Proto.reply
(** Execute one request and wait for its reply.  Tenant-scoped requests
    run on the tenant's shard; [Hello]/[Ping]/[Shutdown] are answered
    inline ([Shutdown] replies [R_bye] — initiating the drain is the
    caller's job).  After {!drain} has begun, returns
    [Error (Precondition _)].

    [ctx] is the propagated trace context ({!Wl_obs.Ctx}, default
    [none]): when set and tracing is on, the shard emits
    [serve.queue_wait] / [serve.batch] / [serve.engine] spans under the
    caller's span, and engine-side HDR exemplars and flight records
    latch the trace id.

    The introspection requests — [Dstats], [Dhealth], [Trace_dump] —
    are answered inline on the calling thread from a roster mirror plus
    lock-free engine read-backs, so they never queue behind (or block)
    engine work.  [Dstats] rollups merge every session's live histogram
    via {!Wl_obs.Hdr.merge_into}: true daemon-wide quantiles. *)

val drain : t -> (string * Engine.session) list
(** Stop accepting, flush every shard's queue, join the workers, and
    return every still-open session, sorted by tenant — after the join
    the sessions are quiescent, so callers can read
    {!Wl_engine.Engine.health} or dump flight recorders without racing a
    worker.  Idempotent; later calls return the same listing. *)
