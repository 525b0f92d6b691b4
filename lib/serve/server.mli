(** The [wld] daemon core: a socket front-end over a {!Shard.t}.

    One OS thread per accepted connection reads {!Wire} frames, decodes
    {!Proto} requests (text or JSON, answered in kind), and executes them
    through {!Shard.call} — so the protocol work stays on cheap threads
    while the engine work stays on the shard domains.

    Shutdown is cooperative: {!request_stop} (safe from a signal handler
    and from connection threads — a client [shutdown] request triggers it
    after its [bye] reply) only marks a flag; {!wait} notices, closes the
    listener, drains the shards and returns every session's final
    {!Wl_engine.Engine.health} — the listing the daemon dumps before
    exiting 0. *)

open Wl_core
module Engine = Wl_engine.Engine

(** Listening endpoints; rendered/parsed as [unix:PATH] and
    [tcp:HOST:PORT] (a bare path starting with [/] or [.] counts as
    [unix:], a bare [HOST:PORT] as [tcp:]). *)
type address = Unix_sock of string | Tcp of string * int

val address_of_string : string -> (address, Error.t) result
val address_to_string : address -> string

type t

val serve : shard:Shard.t -> address -> (t, Error.t) result
(** Bind, listen and start accepting on a background thread.  A unix
    socket path is unlinked first if present; TCP listeners set
    [SO_REUSEADDR].  [Error (Io _)] when the endpoint cannot be bound. *)

val request_stop : t -> unit
(** Ask the server to shut down; returns immediately.  Idempotent. *)

val wait : t -> (string * Engine.session) list
(** Block until {!request_stop}, then perform the drain: close the
    listener, flush and join the shards, and return the quiesced
    per-tenant session listing (sorted by tenant) for health and flight
    dumps.  In-flight connections observing the drain receive
    [Precondition] error frames. *)
