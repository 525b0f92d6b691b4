(** End-to-end wavelength assignment with method dispatch.

    Applies the sharpest applicable result from the paper:

    {ul
    {- no internal cycle: Theorem 1 — optimal, [w = pi];}
    {- UPP with exactly one internal cycle: Theorem 6 — at most
       [ceil(4 pi/3)] wavelengths (additionally refined to an exact optimum
       when the instance is small enough for the exact solver).  The
       construction promises the bound only for families of distinct
       dipaths; when it uses more colors, which it can on families that
       repeat dipaths, DSATUR's coloring of the conflict graph is kept
       instead if it uses fewer, reported as [Heuristic];}
    {- UPP with several internal cycles: the iterated Theorem 6 recursion;}
    {- otherwise: exact conflict-graph coloring when the family is small,
       DSATUR heuristic at scale.}} *)

type method_used =
  | Theorem_1  (** optimal by construction *)
  | Theorem_6
      (** the Theorem 6 construction: within [ceil(4 pi/3)] on families of
          distinct dipaths; on a family that repeats dipaths it is kept
          above the bound only when DSATUR does no better *)
  | Theorem_6_iterated
      (** UPP with [C >= 2] internal cycles: within [C] nested ceilings of
          [4/3 pi] (the paper's closing remark) *)
  | Exact_coloring  (** optimal by search *)
  | Heuristic  (** DSATUR / Welsh–Powell upper bound *)

type lower_bound_source =
  | From_load  (** the arc load [pi] (on UPP-DAGs also the clique number) *)
  | From_clique  (** a greedy clique in the conflict graph beat [pi] *)
  | From_exact_chromatic  (** exact chromatic number: the bound is tight *)

type report = {
  classification : Wl_dag.Classify.t;
  pi : int;
  lower_bound : int;  (** best known lower bound on [w] *)
  lower_bound_source : lower_bound_source;  (** where that bound came from *)
  assignment : Assignment.t;
  n_wavelengths : int;
  method_used : method_used;
  optimal : bool;  (** [n_wavelengths = lower_bound] *)
}

val solve : Instance.t -> report
(** The exact coloring solver runs on families of at most 24 dipaths.
    The returned assignment is always valid ({!Assignment.is_valid}). *)

val solve_classified : Wl_dag.Classify.t -> Instance.t -> report
(** {!solve} given the classification it would compute, for a caller
    that keeps one already (the engine recomputes it only when the graph
    changes).  The classification must be that of [Instance.dag inst];
    [solve inst] is [solve_classified (Classify.classify (Instance.dag
    inst)) inst]. *)

val solve_result : Instance.t -> (report, Error.t) result
(** Exception-free {!solve}: any precondition violation surfaces as
    [Error (Precondition _)]. *)

val method_name : method_used -> string

val pp_report : ?stats:bool -> Format.formatter -> report -> unit
(** With [~stats:false] (the default) the output is byte-identical to the
    historical format.  With [~stats:true] the lower-bound line carries its
    provenance and a {!Wl_obs.Metrics.pp_summary} counter table is
    appended (enable metrics before {!solve} for it to be non-empty). *)
