(** Self-contained SVG rendering of digraphs and wavelength-colored dipath
    families.

    A dependency-free alternative to the DOT export: vertices are laid out
    in layers by longest-path depth (sources left, sinks right), arcs drawn
    as cubic curves, and each dipath family overlaid with one stroke color
    per wavelength.  Good enough to eyeball every figure in the paper
    without Graphviz installed. *)

val of_digraph : Digraph.t -> string
(** Plain rendering; the viewport scales to the layer layout. *)

val of_colored_paths : Digraph.t -> (Dipath.t * int) list -> string
(** [of_colored_paths g paths] overlays each [(dipath, wavelength)] pair,
    offsetting parallel strokes on shared arcs so multiplicity stays
    visible.  Wavelengths index a fixed palette (cycling past its end). *)

val write_file : string -> string -> unit
