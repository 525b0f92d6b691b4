(** End-to-end wavelength assignment with method dispatch.

    Applies the sharpest applicable result from the paper:

    {ul
    {- no internal cycle: Theorem 1 — optimal, [w = pi];}
    {- UPP with exactly one internal cycle: Theorem 6 — at most
       [ceil(4 pi/3)] wavelengths (additionally refined to an exact optimum
       when the instance is small enough for the exact solver);}
    {- UPP with several internal cycles: the iterated Theorem 6 recursion;}
    {- otherwise: exact conflict-graph coloring when the family is small,
       DSATUR heuristic at scale.}} *)

type method_used =
  | Theorem_1  (** optimal by construction *)
  | Theorem_6  (** within [ceil(4 pi/3)] *)
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

val solve : ?exact_limit:int -> Instance.t -> report
(** [exact_limit] (default 24) caps the family size for which the exact
    coloring / exact clique solvers are invoked on the fallback paths.
    The returned assignment is always valid ({!Assignment.is_valid}). *)

val solve_result : ?exact_limit:int -> Instance.t -> (report, Error.t) result
(** Exception-free {!solve}: a negative [exact_limit] or any precondition
    violation surfaces as [Error (Precondition _)]. *)

val method_name : method_used -> string
val lower_bound_source_name : lower_bound_source -> string

val pp_report : ?stats:bool -> Format.formatter -> report -> unit
(** With [~stats:false] (the default) the output is byte-identical to the
    historical format.  With [~stats:true] the lower-bound line carries its
    provenance and a {!Wl_obs.Metrics.pp_summary} counter table is
    appended (enable metrics before {!solve} for it to be non-empty). *)
