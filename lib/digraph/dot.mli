(** Graphviz DOT export.

    Renders a digraph, optionally highlighting a family of dipaths with one
    pen color per wavelength — handy for eyeballing the paper's figures
    ([dot -Tpdf] on the output). *)

val of_digraph : Digraph.t -> string
(** Plain DOT rendering of the graph, named [G]. *)

val of_colored_paths :
  ?name:string ->
  Digraph.t ->
  (Dipath.t * int) list ->
  string
(** [of_colored_paths g paths] renders the graph and, for each
    [(path, color)] pair, overlays the path's arcs in the pen color chosen
    for [color] (colors index a fixed palette, cycling past its end). *)

val write_file : string -> string -> unit
(** [write_file path dot_source]. *)
