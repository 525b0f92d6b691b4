(** Incremental solving sessions over mutable instances.

    A session owns a private copy of a digraph plus a multiset of live
    dipaths and keeps a wavelength assignment warm across mutations.  While
    the graph has no internal cycle (the paper's Theorem 1 regime) the
    session maintains the exact optimum [w = pi] incrementally:

    {ul
    {- {!add_path} first looks for a palette color free on the touched arcs
       (a {e warm hit}), opens a fresh color when the insertion itself
       raised the load [pi], and otherwise runs a bounded Theorem-1-style
       Kempe-cascade repair;}
    {- {!remove_path} keeps the palette contiguous and, when the optimum
       shrank, greedily empties the smallest color class;}
    {- {!add_arc} rejects directed cycles outright and re-classifies the
       graph — the first internal cycle ends the warm regime.}}

    Whenever the warm path gives up (flip budget exhausted, shrink failure,
    internal cycle appeared) the session only marks itself dirty; the next
    query transparently re-solves the materialized instance with
    {!Wl_core.Solver.solve_classified}, handing it the classification the
    session keeps, so results are always exactly what a fresh
    {!Wl_core.Solver.solve} of the current instance would report.
    Cumulative per-session {!stats} record how often each path was taken;
    the [engine.*] {!Wl_obs.Metrics} counters aggregate the same events
    globally.

    The warm machinery runs on a retained per-session scratch (generation
    stamps, an int-array Kempe queue, recycled position rows), so a steady
    stream of warm {!add_dipath_exn}/{!remove_path_exn} ops performs no
    minor allocation once buffer capacities have settled — the
    [engine.add_path] and [engine.remove_path] trace spans report
    [gc.minor_w = 0] under {!Wl_obs.Prof}. *)

open Wl_digraph
open Wl_core

type session

type path_id = int
(** Handles returned by {!add_path}: slot indices, never reused, so a stale
    handle is detected ([Invalid_op]) rather than silently rebound. *)

(** {1 Construction} *)

val create :
  ?repair_budget:int ->
  ?flight_capacity:int ->
  Instance.t ->
  session
(** Start a session from an existing instance (graph and paths are copied;
    the instance value is not aliased).  [repair_budget] bounds the number
    of dipaths a single warm repair may recolor before falling back to a
    full re-solve (default 256; [0] disables warm repairs entirely).
    [flight_capacity] sizes the session's {!Wl_obs.Flight} ring (default
    1024 ops).  The per-op latency SLO reported by {!health} has a 1 ms
    target and a 1% budget. *)

(** {1 Mutations}

    All mutations are result-typed and leave the session unchanged on
    [Error]. *)

val add_path : session -> Digraph.vertex list -> (path_id, Error.t) result
(** Validates the vertex sequence against the current graph
    ([Invalid_path]) and inserts it. *)

val add_dipath : session -> Dipath.t -> (path_id, Error.t) result
(** Insert a caller-built dipath.  The hot-path variant of {!add_path}:
    no vertex-list traversal and no dipath construction per call.  The
    dipath is validated against the session's graph by arc ids — in
    range, chained head-to-tail, no repeated vertex ([Invalid_path]
    otherwise).  Arc ids survive the graph copy made by {!create}, so
    dipaths built against the source instance's graph are valid here. *)

val add_dipath_exn : session -> Dipath.t -> path_id
(** {!add_dipath}, raising {!Wl_core.Error.Error} instead of returning
    [Error] — the warm steady state performs zero minor allocation, which
    a result cell would break.  This and {!remove_path_exn} are the only
    two [_exn] twins the public API keeps (see the deprecation table in
    {!module:Wl}): both are documented zero-alloc hot paths, everything
    else is result-typed only. *)

val remove_path : session -> path_id -> (unit, Error.t) result
(** [Bad_index] for an out-of-range handle, [Invalid_op] for an
    already-removed one. *)

val remove_path_exn : session -> path_id -> unit
(** {!remove_path}, raising {!Wl_core.Error.Error}; allocation-free on
    the warm path, like {!add_dipath_exn}. *)

val add_arc :
  session -> Digraph.vertex -> Digraph.vertex -> (Digraph.arc, Error.t) result
(** Appends an arc.  [Bad_index] on a bad endpoint, [Invalid_op] on a
    self-loop or duplicate, [Cyclic] when the arc would close a directed
    cycle (the graph must stay a DAG).  Arc ids are append-only, so dipath
    handles survive. *)

(** {1 Queries} *)

val report : session -> Solver.report
(** The solver report for the current instance.  O(live paths) straight off
    the warm state; triggers one full solve first when the session is
    dirty.  Equal (same wavelength count, same optimality) to
    [Solver.solve (instance session)]. *)

val color_of : session -> path_id -> (int, Error.t) result
(** Current wavelength of a live path (forces a re-solve when dirty). *)

val instance : session -> Instance.t
(** Materialize the current graph and live paths (in handle order) as an
    immutable instance.  Its DAG is the session's frozen copy of the
    graph: made (one graph copy, one topological sort) by the first
    materialization after an {!add_arc}, then shared by every instance
    and full solve until the next {!add_arc}.  The session never mutates
    it, and later mutations of the session do not show through it; like
    any [Dag.graph], callers must not mutate it either. *)

val n_live_paths : session -> int
val live_paths : session -> (path_id * Dipath.t) list
val pi : session -> int
(** The live load, maintained incrementally (O(1) to read). *)

(** {1 Batched submission} *)

type op =
  | Add_path of Digraph.vertex list
  | Remove_path of path_id
  | Add_arc of Digraph.vertex * Digraph.vertex

type op_outcome =
  | Path_added of path_id
  | Path_removed of path_id
  | Arc_added of Digraph.arc

type stats = {
  ops : int;  (** accepted mutations *)
  warm_hits : int;  (** adds colored with an existing free color *)
  fresh_colors : int;  (** adds that opened a color because [pi] grew *)
  repairs : int;  (** adds resolved by a Kempe cascade *)
  repair_flips : int;  (** total dipaths recolored across repairs *)
  shrink_recolors : int;  (** removals that emptied a color class greedily *)
  warm_removes : int;  (** removals handled without re-solving *)
  fallbacks : int;  (** warm attempts abandoned to a dirty re-solve *)
  full_solves : int;  (** full [Solver.solve] runs *)
  rejected : int;  (** mutations refused with an [Error] *)
}

val stats : session -> stats
(** Cumulative since [create]. *)

val hit_rate : stats -> float
(** Fraction of accepted mutations handled warm; [1.0] when idle. *)

type batch = {
  outcomes : (op_outcome, Error.t) result array;
      (** per-op, in submission order; failed ops are recorded and the rest
          of the batch still runs *)
  batch_report : Solver.report;  (** the report after the whole batch *)
  batch_stats : stats;
}

val submit : session -> op list -> batch
(** Apply a batch of mutations, then report once — intermediate states are
    never solved, so a dirty streak inside the batch costs one solve at the
    end, not one per op. *)

(** {1 Auditing} *)

val audit : session -> (unit, string) result
(** Exhaustive internal-invariant check (occupancy index, load accounting,
    warm coloring validity and contiguity); O(total path length).  Test
    hook.  On [Error] the violation is recorded in the session's flight
    ring and the {!Wl_obs.Flight} auto-dump latch fires, so an installed
    dump handler receives the op tail that led to the broken state. *)

val corrupt_for_testing : session -> unit
(** Deliberately break the internal load accounting so the next {!audit}
    fails — the hook behind [wl session --inject-audit-failure] and the
    CI check that a failing audit emits a flight dump.  The session is
    unusable for real work afterwards. *)

(** {1 Observability}

    Per-session flight recorder, HDR op latencies and SLO state are
    always on: recording costs a handful of int stores per op and keeps
    the warm paths zero-minor-allocation.  The read-back surfaces below
    are cold and may allocate. *)

val flight : session -> Wl_obs.Flight.t
(** The session's flight recorder (e.g. to render dumps, or {!rearm}
    after handling a triggered one). *)

val add_hdr : session -> Wl_obs.Hdr.t
val remove_hdr : session -> Wl_obs.Hdr.t
(** The live per-session latency histograms, exposed so a daemon can
    fold every session into one rollup via {!Wl_obs.Hdr.merge_into}
    (true cross-shard quantiles).  Read-side surfaces — keep writing
    through engine ops only. *)

type health = {
  healthy : bool;
      (** SLO not tripped, no warm-hit-rate drop, fallback streak < 8 *)
  slo : Wl_obs.Hdr.Slo.state;
  add_latency : Wl_obs.Hdr.snapshot;
  remove_latency : Wl_obs.Hdr.snapshot;
  add_exemplar : (int * int) option;
      (** {!Wl_obs.Hdr.exemplar} of the add histogram: worst traced
          sample as [(ns, trace_id)], [None] until a traced op lands *)
  remove_exemplar : (int * int) option;
  fallback_streak : int;  (** consecutive warm-path fallbacks, current *)
  max_fallback_streak : int;
  warm_hit_recent : float;  (** warm-handled fraction over the last 256 ops *)
  warm_hit_lifetime : float;  (** {!hit_rate} of the cumulative stats *)
  warm_drop : bool;
      (** the recent rate fell under half the lifetime rate (window full) *)
}

val health : session -> health
val pp_health : Format.formatter -> health -> unit
