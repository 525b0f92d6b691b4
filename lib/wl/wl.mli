(** The umbrella facade: the whole public surface under one [Wl] root.

    [open Wl] (or link the [wavelength] library) and every stable module is
    one alias away — [Wl.Digraph], [Wl.Solver], [Wl.Engine], [Wl.Client], …
    — without remembering which internal library ([wavelength.core],
    [wavelength.engine], [wavelength.serve], …) a module lives in.  The
    aliases are the same modules, not wrappers: values and types are
    interchangeable with code that links the sub-libraries directly.

    The facade is the compatibility surface: modules reachable from here
    keep their interfaces stable across minor versions; the [Wl_*]
    libraries underneath may reorganize.

    {2 One result-typed form per operation}

    Since the service split, every public operation of the solving,
    serialization and session layers has exactly one blessed form, and it
    returns [('a, Wl_core.Error.t) result] — the same structured error
    that crosses the [wlrpc/1] wire and maps onto the CLI's sysexits codes
    ({!Error.to_code}).

    Three [_exn] forms are kept on purpose, and they are the documented
    exceptions, not a pattern to extend:
    {ul
    {- {!Engine.add_dipath_exn} and {!Engine.remove_path_exn}: their warm
       steady state performs zero minor allocation, and a result cell
       would break that;}
    {- {!Dag.of_digraph_exn}: the DAG layer sits below {!Error}, and its
       library callers build graphs that are acyclic by construction;
       untrusted graphs go through {!Instance.of_digraph}.}}

    {2 The service way in}

    {!connect}, {!session} and {!local} (re-exports of {!Client.connect},
    {!Client.session} and {!Client.local}) are the documented entry points
    for programs that talk to a [wld] daemon — or want the identical
    result-typed API in-process:

    {[
      let c = Result.get_ok (Wl.connect "unix:/run/wld.sock") in
      match Wl.session c ~tenant:"build42" with
      | Error e -> prerr_endline (Wl.Error.to_string e)
      | Ok s -> (* Wl.Client.add_path s [0; 1; 2], ... *) ()
    ]} *)

(** {1 Graphs and paths} *)

module Digraph = Wl_digraph.Digraph
module Dipath = Wl_digraph.Dipath
module Traversal = Wl_digraph.Traversal
module Dot = Wl_digraph.Dot
module Svg = Wl_digraph.Svg

(** {1 DAG structure theory} *)

module Dag = Wl_dag.Dag
module Classify = Wl_dag.Classify
module Internal_cycle = Wl_dag.Internal_cycle
module Upp = Wl_dag.Upp

(** {1 Instances, solving, serialization} *)

module Error = Wl_core.Error
module Instance = Wl_core.Instance
module Load = Wl_core.Load
module Assignment = Wl_core.Assignment
module Solver = Wl_core.Solver
module Serial = Wl_core.Serial
module Routing = Wl_core.Routing
module Grooming = Wl_core.Grooming
module Certificate = Wl_core.Certificate
module Bounds = Wl_core.Bounds

(** {1 Incremental sessions} *)

module Engine = Wl_engine.Engine
module Script = Wl_engine.Script

(** {1 Generators and observability} *)

module Figures = Wl_netgen.Figures
module Generators = Wl_netgen.Generators
module Path_gen = Wl_netgen.Path_gen
module Traffic = Wl_netgen.Traffic
module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Prng = Wl_util.Prng

(** {1 Wavelength assignment as a service}

    The [wlrpc/1] protocol stack, bottom up: {!Wire} (length-prefixed
    frames), {!Proto} (typed messages, text + JSON codecs), {!Shard}
    (sessions sharded across engine workers), {!Server} (the [wld] daemon
    core) and {!Client} (the result-typed way in, local or remote). *)

module Proto = Wl_serve.Proto
module Wire = Wl_serve.Wire
module Shard = Wl_serve.Shard
module Server = Wl_serve.Server
module Client = Wl_serve.Client

(** {1 Convenience} *)

val solve : Instance.t -> Solver.report
(** {!Solver.solve}. *)

val solve_result : Instance.t -> (Solver.report, Error.t) result
(** {!Solver.solve_result}. *)

val connect : ?json:bool -> ?seed:int -> string -> (Client.t, Error.t) result
(** {!Client.connect}: dial a [wld] daemon ([unix:PATH] or
    [tcp:HOST:PORT]). *)

val session : Client.t -> tenant:string -> (Client.session, Error.t) result
(** {!Client.session}: a tenant handle on a connected client. *)

val local : ?json:bool -> ?seed:int -> ?shards:int -> unit -> Client.t
(** {!Client.local}: the same API with no daemon — an in-process loopback
    that still exercises the full codec. *)

val version : int
(** Serialization format version this build writes by default (the
    [wl 2] header of {!Serial.to_string}). *)
