(** The [wld] daemon core: a socket front-end over a {!Shard.t}.

    One systhread per accepted connection reads {!Wire} frames, decodes
    {!Proto} requests (text or JSON, answered in kind), executes them
    through {!Shard.call}, and encodes and writes each reply — all in
    one domain.  Only the engine work runs under {!Shard}'s lock; the
    reads, writes and codec run outside it, so a stalled peer blocks
    nobody else.

    Shutdown is cooperative: {!request_stop} (safe from a signal handler
    and from connection threads — a client [shutdown] request triggers it
    after its [bye] reply) only marks a flag; {!wait} notices, closes the
    listener, drains the shard set and returns every session's final
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
    [SO_REUSEADDR].  [Error (Io _)] when the endpoint cannot be bound.
    Sets [SIGPIPE] to ignored for the whole process, so a peer that hangs
    up before its reply is written ends only its own connection. *)

val request_stop : t -> unit
(** Ask the server to shut down; returns immediately.  Idempotent. *)

val wait : t -> (string * Engine.session) list
(** Block until {!request_stop}, then perform the drain: close the
    listener, drain the shard set (an op in flight finishes first), and
    return the quiesced per-tenant session listing (sorted by tenant)
    for health and flight dumps.  Connections still open receive
    [Precondition] error frames for later tenant requests. *)
