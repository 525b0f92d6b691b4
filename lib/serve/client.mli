(** Result-typed client for the wavelength-assignment service.

    Mirrors the {!Wl_engine.Engine} session API one-to-one — every call
    returns [('a, Wl_core.Error.t) result], never raises — over either
    transport:

    {ul
    {- {!connect} — a remote [wld] daemon ([unix:PATH] or
       [tcp:HOST:PORT]);}
    {- {!local} — an in-process loopback that still runs
       every request and reply through the full [wlrpc/1] codec
       (encode, frame, unframe, decode), so switching a program between
       embedded and remote operation changes one constructor, not its
       observable behavior.}}

    A {!session} is a tenant handle bound to a client; all engine
    operations go through one.  One client may serve many sessions and
    is safe to share between threads (remote calls serialize on the
    connection).

    When {!Wl_obs.Trace} is enabled, every request opens a span — a trace
    root, or a child of the caller's ambient {!Wl_obs.Ctx} — and sends
    the context on the frame, so client, wire, shard and engine spans
    share one trace id in a merged Chrome view.  With tracing off the
    frames are byte-identical to the pre-context protocol. *)

open Wl_core
module Digraph = Wl_digraph.Digraph
module Engine = Wl_engine.Engine

type t
type session

type outcomes = {
  outcomes : (Proto.outcome, Error.t) result array;
  after : Proto.report;
}
(** Wire projection of {!Wl_engine.Engine.batch}. *)

(** {1 Connecting} *)

val connect : ?json:bool -> ?seed:int -> string -> (t, Error.t) result
(** Dial a daemon at an {!Server.address} string and check its protocol
    version: one untraced [hello] (no span, no trace context, no draw
    from the id generator) must come back as [R_hello Proto.version].
    Any other reply closes the socket and returns
    [Error (Unsupported_version v)] for a daemon speaking version [v],
    or the error received.  [json] selects the JSON mirror encoding for
    requests (replies come back in kind); default is the text form.
    [seed] (default [0]) seeds the client's {!Wl_obs.Ctx} id generator,
    so traced runs are reproducible.  Sets [SIGPIPE] to ignored for the
    whole process, so a call on a connection whose daemon has gone away
    returns [Error (Io _)] instead of killing the process. *)

val local : ?json:bool -> ?seed:int -> ?shards:int -> unit -> t
(** Self-contained loopback client over a private {!Shard.t} with the
    default flight capacity: requests execute on the caller's thread. *)

val close : t -> unit
(** Remote: close the socket.  Loopback: drain the private shards.
    Idempotent; later calls return [Error (Invalid_op _)]. *)

val ping : t -> (unit, Error.t) result

val shutdown_server : t -> (unit, Error.t) result
(** Ask the daemon to drain and exit (loopback: a no-op [Ok ()]). *)

(** {1 Sessions} *)

val session : t -> tenant:string -> (session, Error.t) result
(** A handle for [tenant] (validated by {!Proto.tenant_ok}); does not
    open anything server-side. *)

val open_session : t -> tenant:string -> Instance.t -> (session, Error.t) result
(** Open (or replace) the tenant's engine session from an instance. *)

(** {1 Engine operations} — names and shapes follow
    {!Wl_engine.Engine}. *)

val add_path : session -> Digraph.vertex list -> (Engine.path_id, Error.t) result
val remove_path : session -> Engine.path_id -> (unit, Error.t) result
val submit : session -> Engine.op list -> (outcomes, Error.t) result
val report : session -> (Proto.report, Error.t) result
val pi : session -> (int, Error.t) result
val color_of : session -> Engine.path_id -> (int, Error.t) result
val stats : session -> (Engine.stats, Error.t) result
val health : session -> (Proto.health, Error.t) result
val snapshot : session -> (Instance.t, Error.t) result
val evict : session -> (unit, Error.t) result

(** {1 Daemon introspection} — answered from monitoring read-backs,
    never queued behind engine work ({!Shard.call}). *)

val daemon_stats : t -> (Proto.dstats, Error.t) result
(** Shard-merged daemon rollup: true cross-shard add/remove quantiles
    (via {!Wl_obs.Hdr.merge_into}) plus one row per live tenant. *)

val daemon_health : t -> (Proto.dhealth, Error.t) result

val trace_pull : ?last:int -> t -> (string, Error.t) result
(** The merged flight rings of every live session as one Chrome trace
    document ([last] caps ops per ring, [0] = all) — pipe it to
    [wl trace-check] or load it in Perfetto. *)
