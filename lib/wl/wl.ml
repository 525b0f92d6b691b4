(** The umbrella facade: the whole public surface under one [Wl] root.

    [open Wl] (or link the [wavelength] library) and every stable module is
    one alias away — [Wl.Digraph], [Wl.Solver], [Wl.Engine], … — without
    remembering which internal library ([wavelength.core],
    [wavelength.engine], …) a module lives in.  The aliases are the same
    modules, not wrappers: values and types are interchangeable with code
    that links the sub-libraries directly.

    The facade is the compatibility surface: modules reachable from here
    keep their interfaces stable across minor versions; the [Wl_*]
    libraries underneath may reorganize. *)

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

(** {1 Wavelength assignment as a service} *)

module Proto = Wl_serve.Proto
module Wire = Wl_serve.Wire
module Shard = Wl_serve.Shard
module Server = Wl_serve.Server
module Client = Wl_serve.Client

(** {1 Convenience} *)

let solve = Wl_core.Solver.solve
let solve_result = Wl_core.Solver.solve_result
let connect = Wl_serve.Client.connect
let session = Wl_serve.Client.session
let local = Wl_serve.Client.local

let version = 2
