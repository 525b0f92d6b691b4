(** Structural classification of a DAG.

    The solver dispatches on this summary: Theorem 1 applies without internal
    cycles, Theorem 6 to UPP-DAGs with exactly one internal cycle, and the
    general case falls back to conflict-graph coloring heuristics. *)

type t = {
  n_vertices : int;
  n_arcs : int;
  n_sources : int;
  n_sinks : int;
  n_internal_cycles : int; (** cyclomatic number of the internal subgraph *)
  is_upp : bool;
  is_rooted_forest : bool;
      (** every vertex has in-degree <= 1 (so there is a unique dipath from
          each root down to any descendant) *)
  longest_path : int;
}

val classify : Dag.t -> t

val pp : Format.formatter -> t -> unit
